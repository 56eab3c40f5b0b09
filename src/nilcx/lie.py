"""Real nilpotent Lie algebras from rational structure constants.

An algebra is given on a basis e_1..e_m by the nonzero brackets
[e_i, e_j] = sum_k c^k_ij e_k with i < j; antisymmetric closure is implicit.
Structure constants are rational: the algebra is real, and complexification
is the business of the complex-structure layer.

Basis indices are 1-based in the public constructor and in error messages,
matching the e_i naming convention; vectors are coordinate tuples over
:class:`~nilcx.scalars.GaussianRational` (with zero imaginary part for real
data) so the same linear algebra serves both the real and complexified
pictures.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import SelfCheckError, ValidationError
from .linalg import (
    Matrix,
    Vector,
    is_zero_vector,
    kernel_basis,
    rank,
    row_space_basis,
)
from .scalars import ONE, ZERO, GaussianRational


def vector_text(entries, symbol: str) -> str:
    """``(c1)*e1 + (c2)*e2 ...`` over the nonzero coordinates, or ``0``."""
    parts = [f"({c})*{symbol}{k + 1}" for k, c in enumerate(entries) if c]
    return " + ".join(parts) if parts else "0"


class LieAlgebra:
    """Finite-dimensional real Lie algebra with rational constants.

    Immutable; the result of its validation is computed once and kept in
    the private ``_checked`` slot. ``_q`` holds the same constants over
    Fraction for both index orders, for the sparse rational brackets.
    """

    __slots__ = ("dim", "name", "_c", "_q", "_checked")

    def __init__(self, dim: int, brackets, name: str = ""):
        """brackets: {(i, j): {k: rational}} with 1-based i < j."""
        if dim < 0:
            raise ValidationError("dimension must be nonnegative")
        # real constants held as scalars, ready for bracket's inner loop
        c: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValidationError(
                    f"bracket key ({i},{j}) must satisfy 1 <= i < j <= dim"
                )
            row: dict[int, GaussianRational] = {}
            for k, coef in comps.items():
                if not (1 <= k <= dim):
                    raise ValidationError(f"bracket target e{k} out of range")
                f = Fraction(coef)
                if f != 0:
                    row[k - 1] = GaussianRational(f)
            if row:
                c[(i - 1, j - 1)] = row
        q: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in c.items():
            q[(i, j)] = {k: x.re for k, x in row.items()}
            q[(j, i)] = {k: -x.re for k, x in row.items()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_checked", None)

    def __setattr__(self, nm, value):
        raise AttributeError("LieAlgebra is immutable")

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        """c^k_ij, 0-based, antisymmetry applied."""
        return self._q.get((i, j), {}).get(k, Fraction(0))

    def bracket_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """Nonzero brackets with 1-based indices, for display and files."""
        return {
            (i + 1, j + 1): {k + 1: v.re for k, v in sorted(comps.items())}
            for (i, j), comps in sorted(self._c.items())
        }

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector, 0-based indices."""
        v = [ZERO] * self.dim
        if i < j:
            for k, coef in self._c.get((i, j), {}).items():
                v[k] = coef
        elif j < i:
            for k, coef in self._c.get((j, i), {}).items():
                v[k] = -coef
        return tuple(v)

    def bracket(self, u, v) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors."""
        out = [ZERO] * self.dim
        su = {k for k, x in enumerate(u) if x}
        sv = {k for k, x in enumerate(v) if x}
        for (i, j), comps in self._c.items():
            # skip pairs whose coefficient u_i v_j - u_j v_i is a sum of zeros
            if not ((i in su and j in sv) or (j in su and i in sv)):
                continue
            f = u[i] * v[j] - u[j] * v[i]
            if f:
                for k, coef in comps.items():
                    out[k] = out[k] + f * coef
        return tuple(out)

    def rational_bracket(self, u: dict, v: dict) -> dict:
        """Bracket of sparse rational vectors {index: Fraction}, 0-based.

        Works on the Fraction constants and returns the nonzero entries.
        """
        out: dict[int, Fraction] = {}
        q = self._q
        for i, x in u.items():
            for j, y in v.items():
                comps = q.get((i, j))
                if comps:
                    xy = x * y
                    for k, c in comps.items():
                        out[k] = out.get(k, 0) + xy * c
        return {k: c for k, c in out.items() if c}

    def ad_matrix(self, i: int) -> Matrix:
        """Matrix of X -> [e_i, X], 0-based."""
        cols = [self.bracket_basis(i, j) for j in range(self.dim)]
        return Matrix.from_columns(cols) if cols else Matrix([])

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self._c)} brackets)"


class Flag(namedtuple("Flag", "levels")):
    """Increasing chain of rational subspaces 0 < V_1 < ... < V_k = g.

    Each level is a canonical echelon basis; ``dims`` lists the nonzero
    levels' dimensions.
    """

    __slots__ = ()

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    def level(self, ell: int) -> tuple[Vector, ...]:
        """V_ell, 1-based; level(0) is the zero subspace."""
        if ell == 0:
            return ()
        return self.levels[ell - 1]

    @property
    def depth(self) -> int:
        return len(self.levels)


class ValidationReport(namedtuple("ValidationReport", "ok step errors")):
    """Outcome of :func:`validate_lie`: the nilpotency step when ok, else the errors."""

    __slots__ = ()


def _annihilator_rows(basis: list[Vector], dim: int) -> list[Vector]:
    # rows N with span(basis) = ker N; for an empty basis that is N = I
    if not basis:
        return [tuple(ONE if c == r else ZERO for c in range(dim)) for r in range(dim)]
    return kernel_basis(Matrix(basis))


def ascending_flag(dim: int, maps: list[Matrix]) -> tuple[Flag, bool]:
    """Ascending flag of a family of linear maps; True if it reaches the space.

    V_0 = 0 and V_l = {X : M X in V_{l-1} for every M in maps}; the flag
    stops when a level repeats. With maps {ad_j} this is the ascending
    central series; with {ad_j, ad_j J} it is the J-ascending series.
    """
    levels: list[tuple[Vector, ...]] = []
    current: list[Vector] = []
    while True:
        ann = Matrix(_annihilator_rows(current, dim))
        # each row n . M is a linear condition on X
        rows = [row for m in maps for row in (ann * m).rows]
        if not rows:
            nxt = [tuple(ONE if c == r else ZERO for c in range(dim)) for r in range(dim)]
        else:
            nxt = kernel_basis(Matrix(rows))
        nxt = row_space_basis(nxt)
        if len(nxt) == len(current):
            return Flag(tuple(levels)), len(current) == dim
        current = nxt
        levels.append(tuple(current))
        if len(current) == dim:
            return Flag(tuple(levels)), True


def _jacobi_violations(a: LieAlgebra) -> list[str]:
    """One message per basis triple i < j < k where Jacobi fails.

    Sums [[e_x, e_y], e_z] over the three cyclic orders straight from the
    sparse structure constants, over Fraction.
    """
    br = a._q
    errors = []
    for i, j, k in combinations(range(a.dim), 3):
        total: dict[int, Fraction] = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_x, e_y], e_z] = sum_m c^m_xy [e_m, e_z]
            for m, c in br.get((x, y), {}).items():
                for l, d in br.get((m, z), {}).items():
                    total[l] = total.get(l, 0) + c * d
        if any(total.values()):
            errors.append(f"jacobi violated at ({i + 1},{j + 1},{k + 1})")
    return errors


def _validate(a: LieAlgebra) -> tuple[tuple[str, ...], Flag | None]:
    """Errors found, and the ascending central series when there are none.

    Computed on the first call for an algebra and kept on it.
    """
    if a._checked is None:
        errors, flag = tuple(_jacobi_violations(a)), None
        if not errors:
            flag, reached = ascending_flag(a.dim, [a.ad_matrix(j) for j in range(a.dim)])
            if not reached:
                errors, flag = ("not nilpotent",), None
        object.__setattr__(a, "_checked", (errors, flag))
    return a._checked


def validate_lie(a: LieAlgebra) -> ValidationReport:
    """Check Jacobi on all basis triples and nilpotency.

    Antisymmetry holds by construction. On success the report carries the
    nilpotency step k (ascending series reaches g in k steps).
    """
    errors, flag = _validate(a)
    step = flag.depth if flag is not None else None
    return ValidationReport(ok=not errors, step=step, errors=errors)


def ascending_series(a: LieAlgebra) -> Flag:
    """The ascending central series as a flag, g_1 = center, top = g.

    Each successive quotient is re-checked to be abelian in the quotient;
    a failure there is a self-check error, not bad input.
    """
    errors, flag = _validate(a)
    if errors:
        raise ValidationError("; ".join(errors))
    for ell, lv in enumerate(flag.levels, start=1):
        below = list(flag.level(ell - 1))
        nonzero = [
            w for u, v in combinations(lv, 2) if not is_zero_vector(w := a.bracket(u, v))
        ]
        # the echelon basis below is independent: rank grows iff a bracket leaves it
        if nonzero and rank(Matrix(below + nonzero)) > len(below):
            raise SelfCheckError(
                f"ascending series quotient not abelian at level {ell}"
            )
    return flag


def center(a: LieAlgebra) -> list[Vector]:
    """Basis of {X : [X, g] = 0}."""
    if a.dim == 0:
        return []
    rows = []
    for j in range(a.dim):
        adj = a.ad_matrix(j)
        # condition [e_j, X] = 0, one row per output coordinate
        rows.extend(adj.rows)
    sol = kernel_basis(Matrix(rows))
    return row_space_basis(sol)
