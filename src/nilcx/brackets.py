"""Coform brackets of a Dolbeault complex, the bracket of degree-1 chains,
and the first-order abelian test.

The complex's contraction table lists X_a _| d wb^l
(:meth:`~nilcx.dolbeault.DolbeaultComplex.contraction_table`), and
:func:`_coform_core` gives the coform brackets {mu, wb^l} from it. An ell
with no row in the table has {mu, wb^l} = 0 for every mu, and
:func:`coform_cores` skips it. The coform brackets are the one bracket
ingredient: for degree-1 chains mu = sum mu_(l,v) wb^l (x) X_v and
nu = sum nu_(k,c) wb^k (x) X_c,

    {mu, nu} = sum mu_(l,v) {nu, wb^l} (x) X_v + sum nu_(k,c) {mu, wb^k} (x) X_c,

which :func:`bracket` evaluates for ``kuranishi``.
:func:`infinitesimal_abelian_locus` finds the degree-1 cohomology
directions whose coform brackets {Phi, wb^l} all vanish, without loading
the series (``kuranishi``) or ``poly``."""

from __future__ import annotations

from .dolbeault import DolbeaultComplex
from .linalg import Matrix, Vector, kernel_basis
from .scalars import ZERO


def _coform_core(table: dict, mu: dict, ell: int) -> dict:
    """{mu, wb^ell} = wb^i ^ (A _| d wb^ell) for a degree-1 chain mu, as a
    scalar (0,2)-form {pair: c} on sorted index pairs."""
    out: dict = {}
    for ((i,), a), cm in mu.items():
        for q, coef in table.get((ell, a), {}).items():
            if q != i:
                # wb^i ^ wb^q, sorted
                pair, val = ((i, q), cm * coef) if i < q else ((q, i), -(cm * coef))
                out[pair] = out.get(pair, ZERO) + val
    return {pair: c for pair, c in out.items() if c}


def coform_cores(table: dict, n: int):
    """mu -> [{mu, wb^l} for l < n], for :func:`bracket`; only the ells with a
    row in ``table`` call :func:`_coform_core`, and the rest share one empty dict."""
    ells, none = {ell for ell, _ in table}, {}
    return lambda mu: [_coform_core(table, mu, ell) if ell in ells else none for ell in range(n)]


def bracket(pos: dict, mu: dict, mu_cores: list, nu: dict, nu_cores: list) -> dict:
    """{mu, nu} of two degree-1 chains, as sparse degree-2 rows {row: c}.

    ``mu_cores`` is what :func:`coform_cores` gives for mu, and likewise for
    nu; ``pos`` maps a degree-2 chain key to its row (``dc.chain_index(2)``).
    """
    out: dict = {}
    for chain, cores in ((mu, nu_cores), (nu, mu_cores)):
        for ((ell,), v), x in chain.items():
            for pair, c in cores[ell].items():
                row = pos[(pair, v)]
                out[row] = out.get(row, ZERO) + x * c
    return {row: c for row, c in out.items() if c}


def infinitesimal_abelian_locus(dc: DolbeaultComplex) -> list[Vector]:
    """Directions in degree-1 cohomology whose coform brackets all vanish.

    Returns coordinate vectors with respect to the harmonic basis; the
    span is the tangent cone of the abelian deformations to first order.
    """
    coh = dc.cohomology(1)
    cores = coform_cores(dc.contraction_table(), dc.n)
    rows_by_key: dict = {}
    for idx, h in enumerate(coh.harmonic_basis):
        for ell, core in enumerate(cores(h.coeffs)):
            for pair, c in core.items():
                row = rows_by_key.setdefault((ell, pair), [ZERO] * coh.dimension)
                row[idx] = row[idx] + c
    if rows_by_key:
        m = Matrix([rows_by_key[k] for k in sorted(rows_by_key)])
    else:
        m = Matrix.zero(1, coh.dimension)
    return kernel_basis(m)
