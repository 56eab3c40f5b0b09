"""Deformations of abelian complex structures by power series.

The deformation parameter space is the degree-1 cohomology of the vector
valued conjugate-form complex. A series ``Phi(t)`` starts with the harmonic
basis in its linear term and extends order by order through

    phi_r = -1/2 * adjoint(green(sum_{s} {phi_s, phi_{r-s}}))

where ``{.,.}`` is the graded bracket, applied by
:func:`~nilcx.brackets.bracket` from the coform brackets {phi, wb^l} of each
term, which the abelian locus reads too. Each phi_m is a degree-1
chain, a coefficient dict {((i,), a): c} with no zero entries. Since
dbar_2 dbar_1 = 0, adjoint(green(.)) on degree 2 is the Moore-Penrose
inverse dbar_1^+ (Penrose 1955), so the step is built from degree 1 alone,
with no Laplacian and no Green's operator. All coefficients are exact, so
the truncated Maurer-Cartan residual and the obstruction polynomials are
computed without rounding. At a parameter point the deformed (0,1)-space
is the graph of Phi(t) over the old one, and eliminating the constraints
that J is -i on it and +i on its conjugate gives a genuine almost complex
structure on the same algebra, which the classifier inspects with the usual
integrability and bracket tests; nothing is inferred from the series itself.

Hand-fed instances of :class:`DeformedStructure` (a structure obtained some
other way, wrapped with its algebra) are accepted by the classifier.
"""

from __future__ import annotations

from collections import namedtuple

from .brackets import bracket, coform_cores
from .cxs import AlmostComplexStructure, is_abelian, is_integrable, j_ascending_series, solve_j
from .dolbeault import DolbeaultComplex
from .errors import Frozen, PreconditionError, ValidationError
from .lie import LieAlgebra, combine_rows
from .linalg import pinv
from .poly import Poly, coerce_point, mono_add, mono_degree, mono_eval
from .scalars import I, ZERO, GaussianRational

HALF = GaussianRational("1/2")


def _bracket_pass(dc: DolbeaultComplex, by_degree: dict, order: int) -> dict:
    """{Phi, Phi} through degree order + 1, each unordered pair of terms once.

    ``by_degree[s]`` lists (monomial, degree-1 chain) per degree-s term;
    brackets are sparse degree-2 rows of ``dc.chain_basis(2)``, as the
    harmonic vectors and D's columns are. Each term's coform brackets
    {phi, wb^l} are computed once, when its degree's terms exist, and each
    bracket of two terms is read off theirs. The pass puts
    phi_r = D {Phi, Phi}_r into ``by_degree[r]`` for r <= order, with
    D = -1/2 dbar_1^+ (which is -1/2 dbar*_1 G_2) built as sparse columns
    on the first nonzero bracket. Once r exceeds twice the highest degree
    with a term, every later bracket and term is zero, so the pass stops
    there and leaves those degrees out of ``by_degree``; with an empty
    contraction table every bracket is zero, and it returns at once.
    """
    table = dc.contraction_table()
    if not table:
        return {}
    pos, cores_of = dc.chain_index(2), coform_cores(table, dc.n)
    linear = by_degree[1]
    cores = {1: [cores_of(f) for _, f in linear]}
    brackets: dict = {}
    step = None
    top = 1 if linear else 0
    for r in range(2, order + 2):
        if r > 2 * top:
            break
        acc: dict = {}
        for s in range(1, r // 2 + 1):
            lower, upper = by_degree.get(s, ()), by_degree.get(r - s, ())
            low_cores, up_cores = cores.get(s), cores.get(r - s)
            for x, (ma, fa) in enumerate(lower):
                for y in range(x if 2 * s == r else 0, len(upper)):
                    mb, fb = upper[y]
                    br = bracket(pos, fa, low_cores[x], fb, up_cores[y])
                    if not br:
                        continue
                    twice = 2 * s != r or x != y
                    dst = acc.setdefault(mono_add(ma, mb), {})
                    for k, v in br.items():
                        dst[k] = dst.get(k, ZERO) + (v + v if twice else v)
        acc = {m: rows for m, rows in acc.items() if any(rows.values())}
        brackets.update(acc)
        if r > order:
            break
        if acc and step is None:
            keys = dc.chain_basis(1)
            d = pinv(dc.dbar_matrix(1))
            step = [{keys[i]: -HALF * x for i, x in enumerate(col) if x} for col in d.columns()]
        terms = by_degree[r] = []
        for m in sorted(acc):
            phi = combine_rows(acc[m].items(), step)
            if phi:
                terms.append((m, phi))
        if terms:
            top = r
            cores[r] = [cores_of(f) for _, f in terms]
    return brackets


class DeformationSeries(Frozen):
    """Truncated deformation series Phi(t) = sum_m t^m phi_m.

    ``coeffs`` maps exponent tuples (one slot per parameter) to degree-1
    chains {((i,), a): c}; zero coefficients are omitted. Linear
    coefficients are harmonic, higher ones orthogonal to every harmonic
    form. ``brackets`` maps monomials to {Phi, Phi} through degree
    order + 1 as degree-2 chain rows {row: scalar}, as the bracket pass of
    :func:`kuranishi_series` leaves them.
    """

    __slots__ = ("dolbeault", "params", "order", "coeffs", "brackets")

    def __init__(
        self, dolbeault: DolbeaultComplex, params: int, order: int, coeffs: dict, brackets: dict
    ):
        if order < 1:
            raise ValidationError("order must be at least 1")
        keys = set(dolbeault.chain_basis(1))
        for mono, f in coeffs.items():
            if len(mono) != params:
                raise ValidationError("monomial arity does not match parameter count")
            d = mono_degree(mono)
            if not 1 <= d <= order:
                raise ValidationError("coefficient degree outside series order")
            if not keys >= f.keys():
                raise ValidationError("series coefficients must be degree-1 chains")
        self._set(dolbeault=dolbeault, params=params, order=order, coeffs=coeffs, brackets=brackets)

    def evaluate(self, t_point) -> dict:
        """Phi at a parameter point, a single degree-1 chain."""
        return _sum_terms(self.coeffs, coerce_point(t_point, self.params))


def _sum_terms(coeffs: dict, pt: tuple) -> dict:
    """sum of t^m phi_m over the (m, phi_m) of ``coeffs``, at the point ``pt``."""
    return combine_rows([(m, w) for m in coeffs if (w := mono_eval(m, pt))], coeffs)


class ObstructionSet(namedtuple("ObstructionSet", "params order polys")):
    """One polynomial per degree-2 harmonic direction, truncated at order.

    A parameter point is unobstructed (to this order) exactly when every
    polynomial vanishes there.
    """

    __slots__ = ()


class DeformedStructure(Frozen):
    """An almost complex structure J on an algebra, with the point it came from.

    The classifier only looks at ``j_new``.
    """

    __slots__ = ("t_point", "j_new", "algebra")

    def __init__(self, t_point: tuple, j_new: AlmostComplexStructure, algebra: LieAlgebra):
        self._set(t_point=t_point, j_new=j_new, algebra=algebra)


class DeformationReport(namedtuple("DeformationReport", "integrable abelian nilpotent")):
    """Verdicts of :func:`classify_deformation` on a deformed structure."""

    __slots__ = ()


def kuranishi_series(dc: DolbeaultComplex, order: int = 6) -> DeformationSeries:
    """Build the deformation series to the requested total degree.

    The linear term runs over the degree-1 harmonic basis, one parameter
    per basis form. One bracket pass gives every higher coefficient and
    keeps {Phi, Phi} through degree order + 1 for :func:`obstructions`.
    """
    if order < 1:
        raise PreconditionError("order must be at least 1")
    coh = dc.cohomology(1)
    p = coh.dimension
    linear = [tuple(int(j == k) for j in range(p)) for k in range(p)]
    # copies, so that the series shares no dict with the cached harmonic basis
    by_degree = {1: [(m, dict(h.coeffs)) for m, h in zip(linear, coh.harmonic_basis)]}
    brackets = _bracket_pass(dc, by_degree, order)
    coeffs = {m: f for terms in by_degree.values() for m, f in terms}
    return DeformationSeries(dc, p, order, coeffs, brackets)


def obstructions(series: DeformationSeries) -> ObstructionSet:
    """Pair the kept {Phi, Phi} against the degree-2 harmonic basis.

    The resulting polynomials vanish identically exactly when the series
    satisfies the structure equation to its order; their common zero locus
    picks out the parameter points that still deform after truncation.
    Computes no bracket. With no degree-2 chains (n = 1), H^2 = 0 and the
    set is empty.
    """
    dc = series.dolbeault
    harmonic = dc.harmonic_vectors(2) if dc.n >= 2 else []
    # row r -> (g, conjugate of entry r of harmonic vector g) where that is nonzero
    columns = enumerate(zip(*harmonic))
    conj = {r: [(g, x.conjugate()) for g, x in enumerate(col) if x] for r, col in columns}
    pcs: list = [{} for _ in harmonic]
    for m, rows in series.brackets.items():
        for r, v in rows.items():
            for g, c in conj.get(r, ()):
                pcs[g][m] = pcs[g].get(m, ZERO) + v * c
    polys = tuple(Poly(series.params, pc) for pc in pcs)
    return ObstructionSet(series.params, series.order, polys)


def _owned_series(dc: DolbeaultComplex, series: DeformationSeries):
    if series.dolbeault is not dc:
        raise ValidationError("series does not belong to this complex")


def residual_by_degree(dc: DolbeaultComplex, series: DeformationSeries, t_point) -> dict:
    """dbar Phi(t) + 1/2 {Phi(t), Phi(t)} with nothing cut, split by degree in t.

    Phi_s(t) is the degree-s part of the evaluated series; degree d
    collects dbar Phi_d(t) and 1/2 {Phi_s(t), Phi_u(t)} for s + u = d.
    Returns {d: degree-2 chain} with only the nonzero parts, by increasing
    degree; none means the evaluated series solves the Maurer-Cartan
    equation exactly at t. With no degree-2 chains (n = 1) there are none.
    """
    _owned_series(dc, series)
    pt = coerce_point(t_point, series.params)
    if dc.n < 2:
        return {}
    terms: dict = {}
    for m, f in series.coeffs.items():
        terms.setdefault(mono_degree(m), {})[m] = f
    parts = {s: _sum_terms(fs, pt) for s, fs in terms.items()}
    d1, ones, twos = dc.dbar_matrix(1), dc.chain_basis(1), dc.chain_basis(2)
    pos, cores_of = dc.chain_index(2), coform_cores(dc.contraction_table(), dc.n)
    cores = {s: cores_of(f) for s, f in parts.items()}
    # each degree's sum as a dense row over dc.chain_basis(2) until the end
    out = {s: list(d1.matvec([f.get(k, ZERO) for k in ones])) for s, f in parts.items()}
    for s, fs in parts.items():
        for u, fu in parts.items():
            acc = out.setdefault(s + u, [ZERO] * d1.nrows)
            for r, v in bracket(pos, fs, cores[s], fu, cores[u]).items():
                acc[r] = acc[r] + HALF * v
    out = {d: {twos[r]: v for r, v in enumerate(row) if v} for d, row in sorted(out.items())}
    return {d: chain for d, chain in out.items() if chain}


def deform_structure(dc: DolbeaultComplex, series: DeformationSeries, t_point) -> DeformedStructure:
    """Almost complex structure whose (0,1)-space is spanned by w_j = Xb_j + Phi(Xb_j).

    :func:`~nilcx.cxs.solve_j` reads J off J w_j = -i w_j and J wb_j = i wb_j,
    which leave J undetermined where the space meets its conjugate (parameter
    values too large for the splitting to survive); at t = 0 they give the base J.
    """
    _owned_series(dc, series)
    pt = coerce_point(t_point, series.params)
    phi = series.evaluate(pt)
    n, frame = dc.n, dc.frame
    rows = []
    for jj in range(n):
        w = list(frame.frame_vector(n + jj))
        for a in range(n):
            c = phi.get(((jj,), a))
            if c:
                w = [wi + c * xi for wi, xi in zip(w, frame.vectors[a])]
        wb = [x.conjugate() for x in w]
        rows += [tuple(w + [-I * x for x in w]), tuple(wb + [I * x for x in wb])]
    try:
        j_matrix = solve_j(2 * n, rows)
    except ValidationError:
        t = ", ".join(str(x) for x in pt)
        raise PreconditionError(
            f"parameter too large: deformed (0,1)-space degenerate at t = ({t})"
        ) from None
    return DeformedStructure(t_point=pt, j_new=AlmostComplexStructure(j_matrix), algebra=dc.algebra)


def classify_deformation(algebra: LieAlgebra, deformed: DeformedStructure) -> DeformationReport:
    """Integrability, abelianness and series nilpotency of the new structure.

    Each answer comes from the direct test on the finished operator, never
    from properties of the series that produced it.
    """
    j = deformed.j_new
    integrable = is_integrable(algebra, j)
    abelian = is_abelian(algebra, j)
    _, nilpotent = j_ascending_series(algebra, j)
    return DeformationReport(integrable=integrable, abelian=abelian, nilpotent=nilpotent)
