"""Almost complex structures on real Lie algebras.

Integrability and abelianness tests, the J-ascending series with its
nilpotency verdict, and adapted (1,0)-frames ordered along the ascending
central series. The structure tests and the J-ascending series work on the
algebra's sparse constants and J's sparse rows and columns, in
Gaussian-rational scalars, and build no frame.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    Frozen,
    NotSolvableError,
    PreconditionError,
    SelfCheckError,
    ValidationError,
)
from .lie import Flag, LieAlgebra, ascending_flag, ascending_series, combine_rows, vector_text
from .linalg import (
    EchelonBasis,
    Matrix,
    Vector,
    inverse,
    nonzero_entries,
    rref,
)
from .scalars import I as IMAG
from .scalars import ONE, ZERO, GaussianRational, scalar


def _conj_vector(v: Vector) -> Vector:
    return tuple(x.conjugate() for x in v)


class AlmostComplexStructure(Frozen):
    """Rational operator J with J^2 = -I on the real basis."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: Matrix):
        m = matrix.nrows
        if matrix.ncols != m:
            raise ValidationError("J must be square")
        if m % 2 != 0:
            raise ValidationError("J needs an even-dimensional space")
        for row in matrix.rows:
            for x in row:
                if not x.is_real:
                    raise ValidationError("J must be real")
        if matrix * matrix != Matrix.identity(m).scaled(-1):
            raise ValidationError("J*J != -I")
        self._set(dim=m, matrix=matrix)

    @classmethod
    def from_images(cls, dim: int, images: dict[int, Vector]) -> "AlmostComplexStructure":
        """Build J from images of selected basis vectors, 0-based.

        Each given J e_i = v also forces J v = -e_i. Every constraint J d = r
        is a row [d | r], and rows [D | D J^T] reduce to [I | J^T] above zero
        rows when they determine J. A pivot right of the bar means two
        constraints disagree (inconsistent); fewer than dim pivots leave J
        undetermined (incomplete).
        """
        rows = []
        for i, v in sorted(images.items()):
            e = [ONE if c == i else ZERO for c in range(dim)]
            v = list(map(scalar, v))
            rows.append(tuple(e + v))
            rows.append(tuple(v + [-x for x in e]))
        red, pivots = rref(Matrix._of(tuple(rows)))
        if pivots and pivots[-1] >= dim:
            raise ValidationError("J images inconsistent")
        if len(pivots) < dim:
            raise ValidationError("J images incomplete")
        # the reduced rows hold J^T, so they are J's columns
        return cls(Matrix.from_columns([row[dim:] for row in red.rows[:dim]]))

    def __eq__(self, other):
        if not isinstance(other, AlmostComplexStructure):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AlmostComplexStructure(dim {self.dim})"


class ComplexFrame(Frozen):
    """Basis X_1..X_n of the +i eigenspace of J, with exact dual coframe.

    ``levels``, when present, records the ascending-series level of each
    frame vector; vectors of the deepest level come first and the leading
    vectors of each level prefix span the complexified series member.
    """

    __slots__ = ("algebra", "n", "vectors", "levels", "_basis_inv")

    def __init__(self, algebra: LieAlgebra, vectors, levels=None):
        vectors = tuple(tuple(x for x in v) for v in vectors)
        n = len(vectors)
        if algebra.dim != 2 * n:
            raise ValidationError("frame size must be half the real dimension")
        basis = Matrix.from_columns(
            list(vectors) + [_conj_vector(v) for v in vectors]
        )
        try:
            basis_inv = inverse(basis)
        except NotSolvableError:
            raise ValidationError("frame vectors do not span the complexification") from None
        levels = tuple(levels) if levels is not None else None
        self._set(algebra=algebra, n=n, vectors=vectors, levels=levels, _basis_inv=basis_inv)

    def frame_vector(self, a: int) -> Vector:
        """Frame basis element by label: 0..n-1 are X, n..2n-1 are conj X."""
        if a < self.n:
            return self.vectors[a]
        return _conj_vector(self.vectors[a - self.n])

    def to_frame(self, v: Vector) -> Vector:
        """Coordinates of a complexified vector in (X_1..X_n, conj...)."""
        return self._basis_inv.matvec(v)

    def check_against(self, j: AlmostComplexStructure) -> None:
        for i, v in enumerate(self.vectors):
            if j.matrix.matvec(v) != tuple(IMAG * x for x in v):
                raise SelfCheckError(
                    f"frame vector is not a (1,0)-vector of J: X{i + 1}"
                )


def _sparse_columns(j: AlmostComplexStructure) -> list[dict[int, GaussianRational]]:
    """J e_a as sparse {index: scalar} vectors; J is real."""
    rows = j.matrix.rows
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(j.dim)]


def _pair_parts(algebra: LieAlgebra, cols: list[dict]):
    """((a, b), R, S) for each basis pair a < b (1-based), on the sparse constants.

    R = [Je_a, Je_b] - [e_a, e_b] and S = [Je_a, e_b] + [e_a, Je_b], so
    that [X - iJX, Y - iJY] = -R - iS for X = e_a, Y = e_b. Both are
    bilinear, so their vanishing on basis pairs is vanishing everywhere.
    """
    br = algebra.rational_bracket
    for a, b in combinations(range(algebra.dim), 2):
        ea, eb = {a: ONE}, {b: ONE}
        # -[e_a, e_b] = [e_b, e_a]
        yield (a + 1, b + 1), br((cols[a], cols[b]), (eb, ea)), br((cols[a], eb), (ea, cols[b]))


def is_integrable(algebra: LieAlgebra, j: AlmostComplexStructure) -> bool:
    """True iff the Nijenhuis tensor vanishes on every basis pair.

    N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] = R - J S, computed
    on the sparse structure constants.
    """
    cols = _sparse_columns(j)
    return all(r == combine_rows(s.items(), cols) for _, r, s in _pair_parts(algebra, cols))


def abelian_defect(algebra: LieAlgebra, j: AlmostComplexStructure) -> tuple[int, int] | None:
    """The first basis pair (a, b), a < b and 1-based, with [J e_a, J e_b] != [e_a, e_b].

    None when J is abelian. The other real route, [J e_a, e_b] +
    [e_a, J e_b] = 0, is not run: for J^2 = -I, R(x, Jy) = -S(x, y), so
    the two cannot disagree.
    """
    return next((pair for pair, r, _ in _pair_parts(algebra, _sparse_columns(j)) if r), None)


def is_abelian(algebra: LieAlgebra, j: AlmostComplexStructure) -> bool:
    """[J e_a, J e_b] = [e_a, e_b] for all pairs, on the sparse constants."""
    return abelian_defect(algebra, j) is None


def j_ascending_series(
    algebra: LieAlgebra, j: AlmostComplexStructure
) -> tuple[Flag, bool]:
    """J-compatible ascending series and whether it exhausts the algebra.

    a_l = {X : [X, g] in a_{l-1} and [JX, g] in a_{l-1}}; the structure is
    nilpotent exactly when some a_k is the whole algebra. Row k of ad_j J
    is row k of ad_j combined over J's sparse rows.
    """
    ads = algebra.ad_rows()
    jrows = [dict(nonzero_entries(row)) for row in j.matrix.rows]
    ad_js = [[combine_rows(row.items(), jrows) for row in ad] for ad in ads]
    return ascending_flag(algebra.dim, ads + ad_js)


def adapted_frame(algebra: LieAlgebra, j: AlmostComplexStructure) -> ComplexFrame:
    """Deterministic (1,0)-frame ordered along the ascending series.

    Walks the series from the center outward; at each level pairs the first
    echelon basis vector b outside the current span with Jb and emits
    X = b - i Jb. Requires J to preserve every series member.
    """
    flag = ascending_series(algebra)
    for ell in range(1, flag.depth + 1):
        lv = flag.level(ell)
        level = EchelonBasis(lv)
        for b in lv:
            if j.matrix.matvec(b) not in level:
                raise PreconditionError(
                    f"J does not preserve ascending series: level {ell} basis "
                    f"vector {vector_text(b, 'e')} is mapped outside the level"
                )
    chosen: list[Vector] = []
    span = EchelonBasis()
    levels: list[int] = []
    for ell in range(1, flag.depth + 1):
        for b in flag.level(ell):
            if not span.add(b):
                continue
            jb = j.matrix.matvec(b)
            # the span so far is real and J-invariant, so Jb lies outside it
            span.add(jb)
            chosen.append(tuple(x - IMAG * y for x, y in zip(b, jb)))
            levels.append(ell)
    frame = ComplexFrame(algebra, chosen, levels=levels)
    frame.check_against(j)
    return frame
