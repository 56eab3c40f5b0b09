"""Exact linear algebra over Gaussian rationals.

Echelon forms, kernels, inverses, pseudo-inverses and incremental spans;
the substrate every other module computes on. One elimination on sparse
rows, :class:`EchelonBasis`, serves them all. The reduced row echelon form
of a row space is unique, so identical inputs produce identical outputs,
bit for bit. Products and row updates loop over nonzero entries only; the
matrices here (differentials, ad maps) are mostly zeros.

Vectors are tuples of :class:`~nilcx.scalars.GaussianRational`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import Frozen, NotSolvableError, PreconditionError
from .scalars import ONE, ZERO, GaussianRational, scalar

Vector = tuple[GaussianRational, ...]


class Matrix(Frozen):
    """Immutable dense matrix, row-major, of exact scalars."""

    __slots__ = ("rows",)

    rows: tuple[Vector, ...]

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(map(scalar, row)) for row in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
        self._set(rows=rs)

    @classmethod
    def _of(cls, rows) -> "Matrix":
        """Wrap rows that are already tuples of GaussianRational."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

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
        cols = [tuple(map(scalar, c)) for c in cols]
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
        v = tuple(map(scalar, v))
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
        c = scalar(c)
        return Matrix._of(tuple(tuple(c * x for x in row) for row in self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def nonzero_entries(v: Sequence[GaussianRational]) -> list[tuple[int, GaussianRational]]:
    """(index, entry) for the nonzero entries of v, in index order."""
    return [(k, x) for k, x in enumerate(v) if x]


def is_zero_vector(v: Vector) -> bool:
    return all(not x for x in v)


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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The rows of M are added to an :class:`EchelonBasis`; each kept row is
    then reduced at the pivots after its own, from the last pivot back, and
    the rows are sorted by pivot, with zero rows after them. The RREF of a
    row space is unique, so the result is a canonical form of it.
    """
    nc = m.ncols
    kept = sorted(EchelonBasis(m.rows)._rows, reverse=True)
    done = EchelonBasis()
    rows = []
    for p, entries in kept:
        w = [ZERO] * nc
        for k, x in entries:
            w[k] = x
        # the rows in done have later pivots, and each is zero at the others'
        w = done._remainder(w)
        done._rows.append((p, nonzero_entries(w)))
        rows.append(tuple(w))
    rows.reverse()
    rows += [(ZERO,) * nc] * (m.nrows - len(rows))
    return Matrix._of(tuple(rows)), tuple(p for p, _ in reversed(kept))


def rank(m: Matrix) -> int:
    return len(EchelonBasis(m.rows)._rows)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise PreconditionError("matrix not square")
    n = m.nrows
    # [M | I] reduces to [I | M^-1] when M is invertible
    red, pivots = rref(Matrix._of(tuple(r + e for r, e in zip(m.rows, Matrix.identity(n).rows))))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise NotSolvableError("matrix not invertible")
    return Matrix._of(tuple(red.rows[i][n:] for i in range(n)))


def pinv(m: Matrix) -> Matrix:
    """Moore-Penrose inverse, from the full-rank factorisation M = C F.

    F is the nonzero rows of rref(M) and C the pivot columns of M, so
    M^+ = F^H (F F^H)^{-1} (C^H C)^{-1} C^H (Penrose 1955); both inverted
    matrices are rank by rank and positive definite.
    """
    red, pivots = rref(m)
    if not pivots:
        return Matrix.zero(m.ncols, m.nrows)
    f = Matrix._of(red.rows[: len(pivots)])
    c = Matrix._of(tuple(tuple(row[p] for p in pivots) for row in m.rows))
    fh, ch = f.conj_transpose(), c.conj_transpose()
    return fh * (inverse(f * fh) * (inverse(ch * c) * ch))
