"""Coform brackets of a Dolbeault complex, and the first-order abelian test.

The contraction table lists X_a _| d wb^l, read off the complex's own frame
brackets. ``kuranishi`` builds the bracket of degree-1 forms from it, and
:func:`infinitesimal_abelian_locus` finds the degree-1 cohomology
directions whose coform brackets {Phi, wb^l} all vanish, without loading
the series (``kuranishi``) or ``poly``."""

from __future__ import annotations

from .dolbeault import DolbeaultComplex
from .linalg import Matrix, Vector, kernel_basis
from .scalars import ZERO


def _contraction_table(dc: DolbeaultComplex) -> dict:
    """table[(l, a)][q] = c  where  d wb^l = sum_q c w^a ^ wb^q.

    c = -wb^l([X_a, conj X_q]) is minus the conjugate of component l of
    the (1,0) part of [conj X_a, X_q], which the complex keeps as
    ``dc._dv[q][a]``. Contracting a frame vector into a conjugate coframe
    differential only ever meets the holomorphic leg, so this table is the
    whole bracket ingredient list.
    """
    table: dict = {}
    n = dc.n
    for ell in range(n):
        for a in range(n):
            for q in range(n):
                c = dc._dv[q][a][ell]
                if c:
                    table.setdefault((ell, a), {})[q] = -c.conjugate()
    return table


def _wedge_pair(i: int, q: int):
    """Sorted key and sign for wb^i ^ wb^q, or None when they collide."""
    if i == q:
        return None
    if i < q:
        return (i, q), False
    return (q, i), True


def _coform_core(table: dict, mu: dict, ell: int) -> dict:
    """{mu, wb^ell} = wb^i ^ (A _| d wb^ell) for a degree-1 chain mu, as a
    scalar (0,2)-form {((), pair): c}."""
    out: dict = {}
    for ((i,), a), cm in mu.items():
        for q, coef in table.get((ell, a), {}).items():
            hit = _wedge_pair(i, q)
            if hit is None:
                continue
            pair, flip = hit
            val = cm * coef
            key = ((), pair)
            out[key] = out.get(key, ZERO) + (-val if flip else val)
    return {key: c for key, c in out.items() if c}


def infinitesimal_abelian_locus(dc: DolbeaultComplex) -> list[Vector]:
    """Directions in degree-1 cohomology whose coform brackets all vanish.

    Returns coordinate vectors with respect to the harmonic basis; the
    span is the tangent cone of the abelian deformations to first order.
    """
    coh = dc.cohomology(1)
    table = _contraction_table(dc)
    rows_by_key: dict = {}
    for idx, h in enumerate(coh.harmonic_basis):
        for ell in range(dc.n):
            for (_, pair), c in _coform_core(table, h.coeffs, ell).items():
                row = rows_by_key.setdefault((ell, pair), [ZERO] * coh.dimension)
                row[idx] = row[idx] + c
    if rows_by_key:
        m = Matrix([rows_by_key[k] for k in sorted(rows_by_key)])
    else:
        m = Matrix.zero(1, coh.dimension)
    return kernel_basis(m)
