"""Exact dense linear algebra over Gaussian rationals.

Kernels, solves orthogonal to the kernel, and Hermitian orthogonal
complements; the substrate every other module computes on. All routines are
deterministic: reduced row echelon form with leftmost pivot column and
smallest pivot row, so identical inputs produce identical outputs, bit for
bit. Products and row updates loop over nonzero entries only; the
matrices here (differentials, ad maps, Laplacians) are mostly zeros.

Vectors are tuples of :class:`~nilcx.scalars.GaussianRational`; the Hermitian
form is ``hdot(u, v) = sum u_k * conj(v_k)`` in the given coordinates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import NotSolvableError, PreconditionError
from .scalars import ONE, ZERO, GaussianRational

Vector = tuple[GaussianRational, ...]


def _as_scalar(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


class Matrix:
    """Immutable dense matrix, row-major."""

    __slots__ = ("rows",)

    rows: tuple[Vector, ...]

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(_as_scalar(x) for x in row) for row in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    @classmethod
    def _of(cls, rows) -> "Matrix":
        """Wrap rows that are already tuples of GaussianRational."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of(((ZERO,) * ncols,) * nrows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        cols = [tuple(_as_scalar(x) for x in c) for c in cols]
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return cls._of(tuple(zip(*cols)))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def conj_transpose(self) -> "Matrix":
        return Matrix._of(
            tuple(tuple(x.conjugate() for x in col) for col in zip(*self.rows))
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            ocols = other.ncols
            support = [nonzero_entries(row) for row in other.rows]
            out = []
            for row in self.rows:
                acc = [ZERO] * ocols
                for k, a in nonzero_entries(row):
                    for j, b in support[k]:
                        acc[j] = acc[j] + a * b
                out.append(tuple(acc))
            return Matrix._of(tuple(out))
        return NotImplemented

    def matvec(self, v: Sequence) -> Vector:
        v = tuple(_as_scalar(x) for x in v)
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        nz = nonzero_entries(v)
        out = []
        for row in self.rows:
            acc = ZERO
            for k, x in nz:
                a = row[k]
                if a:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def scaled(self, c) -> "Matrix":
        c = _as_scalar(c)
        return Matrix._of(tuple(tuple(c * x for x in row) for row in self.rows))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix._of(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scaled(-1)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def nonzero_entries(v: Sequence[GaussianRational]) -> list[tuple[int, GaussianRational]]:
    """(index, entry) for the nonzero entries of v, in index order."""
    return [(k, x) for k, x in enumerate(v) if x]


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v: Vector) -> Vector:
    c = _as_scalar(c)
    return tuple(c * x for x in v)


def is_zero_vector(v: Vector) -> bool:
    return all(not x for x in v)


def hdot(u: Sequence, v: Sequence) -> GaussianRational:
    """Standard Hermitian form, linear in the first slot."""
    acc = ZERO
    for a, b in zip(u, v, strict=True):
        if a and b:
            acc = acc + _as_scalar(a) * _as_scalar(b).conjugate()
    return acc


def hdot_support(v: Sequence, support: Sequence[tuple[int, GaussianRational]]) -> GaussianRational:
    """hdot(v, u) for the u whose nonzero entries are ``support = nonzero_entries(u)``."""
    acc = ZERO
    for k, x in support:
        a = v[k]
        if a:
            acc = acc + a * x.conjugate()
    return acc


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Pivot choice is leftmost nonzero column, then smallest row index; no
    other freedom exists, so the result is a canonical form of the row
    space.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        pivot_row = rows[r]
        support = [(j, inv * x) for j, x in nonzero_entries(pivot_row)]
        for j, y in support:
            pivot_row[j] = y
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                row = rows[i]
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix._of(tuple(tuple(row) for row in rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of ker M, one vector per free column.

    The free-column unit convention: the vector for free column f has a 1 in
    slot f and zeros in all other free slots, with pivot slots filled from
    the reduced rows. Exact rank-nullity holds by construction.
    """
    red, pivots = rref(m)
    nc = m.ncols
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    out: list[Vector] = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][f]
        out.append(tuple(v))
    return out


def _particular_solution(m: Matrix, b: Vector) -> Vector:
    aug = Matrix._of(tuple(row + (bb,) for row, bb in zip(m.rows, b, strict=True)))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        raise NotSolvableError("not solvable")
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][m.ncols]
    return tuple(x)


def solve_in_image(m: Matrix, b: Sequence) -> Vector:
    """Solve M x = b exactly, with x orthogonal to ker M.

    Raises :class:`NotSolvableError` ("not solvable") when b is outside the
    image. The orthogonality normalization makes the solution unique, which
    is what a Green's operator needs to be well defined.
    """
    b = tuple(_as_scalar(x) for x in b)
    x0 = _particular_solution(m, b)
    ker = kernel_basis(m)
    if not ker:
        return x0
    # project x0 onto span(ker) and subtract
    d = len(ker)
    gram = Matrix._of(tuple(tuple(hdot(ker[q], ker[p]) for q in range(d)) for p in range(d)))
    rhs = tuple(hdot(x0, ker[p]) for p in range(d))
    coeffs = _particular_solution(gram, rhs)
    x = x0
    for q in range(d):
        x = vsub(x, vscale(coeffs[q], ker[q]))
    return x


def row_space_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical echelon basis of the span of the given vectors."""
    vs = [v for v in vectors if not is_zero_vector(v)]
    if not vs:
        return []
    red, pivots = rref(Matrix._of(tuple(vs)))
    return [red.rows[i] for i in range(len(pivots))]


class EchelonBasis:
    """A span built one vector at a time, tested by one reduction per vector.

    Each row is kept as its nonzero entries, scaled to 1 at its pivot and
    reduced at the pivot of every earlier row, so reducing a vector
    against the rows in order leaves it zero at every pivot; the
    remainder is zero exactly when the vector lies in the span.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[Vector] = ()):
        self._rows: list[tuple[int, list]] = []
        for v in vectors:
            self.add(v)

    def _remainder(self, v: Sequence[GaussianRational]) -> list[GaussianRational]:
        w = list(v)
        for p, entries in self._rows:
            f = w[p]
            if f:
                for k, x in entries:
                    w[k] = w[k] - f * x
        return w

    def __contains__(self, v: Sequence[GaussianRational]) -> bool:
        return not any(self._remainder(v))

    def add(self, v: Sequence[GaussianRational]) -> bool:
        """Extend the span by v; False, and no change, when v is already in it."""
        entries = nonzero_entries(self._remainder(v))
        if not entries:
            return False
        p, lead = entries[0]
        inv = lead.inverse()
        self._rows.append((p, [(k, inv * x) for k, x in entries]))
        return True


def in_span(v: Vector, basis: Sequence[Vector]) -> bool:
    if is_zero_vector(v):
        return True
    if not basis:
        return False
    return rank(Matrix(list(basis) + [v])) == rank(Matrix(list(basis)))


def orthogonal_complement(
    s: Sequence[Vector], inside: Sequence[Vector]
) -> list[Vector]:
    """Basis of {v in span(inside) : <v, s> = 0 for all s in S}.

    Precondition: span(S) is contained in span(inside); violations raise
    :class:`PreconditionError`. The output together with a basis of span(S)
    spans span(inside), and the mutual Gram matrix is exactly zero.
    """
    inside_basis = row_space_basis(inside)
    inside_span = EchelonBasis(inside_basis)
    for sv in s:
        if sv not in inside_span:
            raise PreconditionError("span(S) not contained in span(inside)")
    if not inside_basis:
        return []
    if not s:
        return list(inside_basis)
    # coefficients x with v = sum x_j b_j, constrained by <v, s_i> = 0
    cons = Matrix._of(
        tuple(tuple(hdot_support(bj, nonzero_entries(si)) for bj in inside_basis) for si in s)
    )
    supports = [nonzero_entries(bj) for bj in inside_basis]
    out = []
    for cv in kernel_basis(cons):
        v = [ZERO] * len(inside_basis[0])
        for c, support in zip(cv, supports, strict=True):
            if c:
                for k, x in support:
                    v[k] = v[k] + c * x
        out.append(tuple(v))
    return out


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise PreconditionError("matrix not square")
    n = m.nrows
    # [M | I] reduces to [I | M^-1] when M is invertible
    red, pivots = rref(Matrix._of(tuple(r + e for r, e in zip(m.rows, Matrix.identity(n).rows))))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise NotSolvableError("matrix not invertible")
    return Matrix._of(tuple(red.rows[i][n:] for i in range(n)))


def gram_schmidt(vectors: Sequence[Vector]) -> list[Vector]:
    """Orthogonalize without normalizing; input must be independent.

    Each output keeps its support and squared norm, so a projection runs
    over that support only and is skipped when its coefficient is zero.
    """
    out: list[Vector] = []
    done: list[tuple[list, GaussianRational]] = []
    for v in vectors:
        w = list(v)
        for support, norm_sq in done:
            c = hdot_support(v, support)
            if c:
                f = c / norm_sq
                for k, x in support:
                    w[k] = w[k] - f * x
        w = tuple(w)
        support = nonzero_entries(w)
        if not support:
            raise PreconditionError("gram_schmidt input not independent")
        out.append(w)
        done.append((support, hdot_support(w, support)))
    return out
