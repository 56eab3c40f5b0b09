"""Real nilpotent Lie algebras from rational structure constants.

An algebra is given on a basis e_1..e_m by the nonzero brackets
[e_i, e_j] = sum_k c^k_ij e_k with i < j; antisymmetric closure is implicit.
Structure constants are rational: the algebra is real, and complexification
is the business of the complex-structure layer.

Basis indices are 1-based in the public constructor and in error messages,
matching the e_i naming convention; vectors are coordinate tuples over
:class:`~nilcx.scalars.GaussianRational` (with zero imaginary part for real
data) so the same linear algebra serves both the real and complexified
pictures. The constants are held as real Gaussian rationals for both index
orders, each ad_j is read off them as sparse rows, and the ascending
central and J-ascending series run on those rows; ``bracket_table``
returns the constants as they are held.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import Frozen, SelfCheckError, ValidationError
from .linalg import (
    Matrix,
    Vector,
    is_zero_vector,
    kernel_basis,
    nonzero_entries,
    rank,
    row_space_basis,
)
from .scalars import ZERO, GaussianRational, scalar, terms_text


def vector_text(entries, symbol: str) -> str:
    """``(c1)*e1 + (c2)*e2 ...`` over the nonzero coordinates, or ``0``."""
    return terms_text((f"{symbol}{k + 1}", c) for k, c in enumerate(entries) if c)


class LieAlgebra(Frozen):
    """Finite-dimensional real Lie algebra with rational constants.

    Immutable; the result of its validation is computed once and kept in
    the private ``_checked`` slot. ``_c`` holds the nonzero constants as
    real Gaussian rationals for both index orders: ``_c[(i, j)][k]`` is
    c^k_ij, 0-based.
    """

    __slots__ = ("dim", "name", "_c", "_checked")

    def __init__(self, dim: int, brackets, name: str = ""):
        """brackets: {(i, j): {k: exact real scalar}} with 1-based i < j."""
        if dim < 0:
            raise ValidationError("dimension must be nonnegative")
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
                x = scalar(coef)
                if not x.is_real:
                    raise ValidationError(f"bracket constant c^{k}_{i}{j} is not real")
                if x:
                    row[k - 1] = x
            if row:
                c[(i - 1, j - 1)] = row
                c[(j - 1, i - 1)] = {k: -x for k, x in row.items()}
        self._set(dim=dim, name=name, _c=c, _checked=None)

    def bracket_table(self) -> dict[tuple[int, int], dict[int, GaussianRational]]:
        """The nonzero brackets with 1-based indices i < j, sorted, and real
        exact scalars as values; they compare and hash like ``Fraction``s."""
        return {
            (i + 1, j + 1): {k + 1: v for k, v in sorted(comps.items())}
            for (i, j), comps in sorted(self._c.items())
            if i < j
        }

    def bracket(self, u, v) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors."""
        w = self.rational_bracket((dict(nonzero_entries(u)), dict(nonzero_entries(v))))
        return tuple(w.get(k, ZERO) for k in range(self.dim))

    def rational_bracket(self, *pairs: tuple[dict, dict]) -> dict:
        """Sum of [u, v] over pairs of sparse vectors {index: scalar}, 0-based.

        Returns the nonzero entries, so equal sums give equal dicts.
        """
        out: dict[int, GaussianRational] = {}
        c = self._c
        for u, v in pairs:
            for i, x in u.items():
                for j, y in v.items():
                    comps = c.get((i, j))
                    if comps:
                        xy = x * y
                        for k, z in comps.items():
                            out[k] = out[k] + xy * z if k in out else xy * z
        return {k: z for k, z in out.items() if z}

    def ad_rows(self) -> list[list[dict[int, GaussianRational]]]:
        """ad_j for every j as sparse rows: ``ad_rows()[j][k] = {i: c^k_ji}``."""
        ad: list[list[dict]] = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        for (j, i), comps in self._c.items():
            for k, z in comps.items():
                ad[j][k][i] = z
        return ad

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self._c) // 2} brackets)"


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


def combine_rows(coeffs, rows) -> dict:
    """sum_r x_r * rows[r] for (r, x) in coeffs, over sparse rows {column: scalar}."""
    out: dict = {}
    for r, x in coeffs:
        for c, y in rows[r].items():
            out[c] = out[c] + x * y if c in out else x * y
    return {c: z for c, z in out.items() if z}


def _null_space(dim: int, conds) -> list[Vector]:
    """Canonical echelon basis of {X : r . X = 0 for every sparse row r in conds}."""
    # with no nonzero condition, one zero row: its kernel is the whole space
    rows = tuple(tuple(r.get(c, ZERO) for c in range(dim)) for r in conds if r)
    return row_space_basis(kernel_basis(Matrix._of(rows or ((ZERO,) * dim,))))


def ascending_flag(dim: int, maps: list[list[dict]]) -> tuple[Flag, bool]:
    """Ascending flag of a family of linear maps; True if it reaches the space.

    Each map is given by its sparse rows {column: scalar}. V_0 = 0 and
    V_l = {X : M X in V_{l-1} for every M in maps}; the flag stops when a
    level repeats. With maps {ad_j} this is the ascending central series;
    with {ad_j, ad_j J} it is the J-ascending series.
    """
    levels: list[tuple[Vector, ...]] = []
    current: list[Vector] = []
    while True:
        if current:
            # V_{l-1} = ker N, and each row n . M of N M is a condition on X
            ann = [nonzero_entries(n) for n in kernel_basis(Matrix._of(tuple(current)))]
            conds = [combine_rows(n, m) for n in ann for m in maps]
        else:
            conds = [row for m in maps for row in m]
        nxt = _null_space(dim, conds)
        if len(nxt) == len(current):
            return Flag(tuple(levels)), len(current) == dim
        current = nxt
        levels.append(tuple(current))
        if len(current) == dim:
            return Flag(tuple(levels)), True


def _jacobi_violations(a: LieAlgebra) -> list[str]:
    """One message per basis triple i < j < k where Jacobi fails.

    Sums [[e_x, e_y], e_z] over the three cyclic orders straight from the
    sparse structure constants.
    """
    br = a._c
    errors = []
    for i, j, k in combinations(range(a.dim), 3):
        total: dict[int, GaussianRational] = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_x, e_y], e_z] = sum_m c^m_xy [e_m, e_z]
            for m, c in br.get((x, y), {}).items():
                for l, d in br.get((m, z), {}).items():
                    total[l] = total[l] + c * d if l in total else c * d
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
            flag, reached = ascending_flag(a.dim, a.ad_rows())
            if not reached:
                top = flag.dims[-1] if flag.levels else 0
                stop = f"stops at level {flag.depth}, dim {top} of {a.dim}"
                errors, flag = (f"not nilpotent: the ascending central series {stop}",), None
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
        if nonzero and rank(Matrix._of(tuple(below + nonzero))) > len(below):
            raise SelfCheckError(
                f"ascending series quotient not abelian at level {ell}"
            )
    return flag
