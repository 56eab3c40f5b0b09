"""Reference routines the tests compare the library against.

Textbook versions of what the package computes another way: the real and
imaginary parts of a scalar read off its integer triple, the Hermitian
form on dense vectors, a solve orthogonal to the kernel, span membership
by rank, the center as the null space of every ad row, the sum, multiple
and differential of ``VectorForm`` chains, their inner product, Laplacian,
harmonic projection and the projector off the harmonic space of a
Dolbeault complex, the check that its harmonic vectors span the
Laplacian's kernel, the graded bracket, one pair of keys at a time, and
the truncated Maurer-Cartan residual on forms, and the hand-written
argparse parser that ``cli.COMMANDS`` replaced. The frame route derives invariant
(p,q)-forms and their differentials from an eigen-frame of J, and names
the witness of a failed integrability test. ``verify_entry`` recomputes a
catalog entry's facts, ``differentials_from_brackets`` reads an algebra's
coframe differentials, and ``abelian_routes`` runs both real abelianness
tests on dense brackets. ``hand_built_series`` brackets coefficients given
by hand, ``vanishes_at`` tells whether every obstruction vanishes at a
point, and ``eigenbasis_deformed_j`` builds a deformed J as
B diag(i, -i) B^-1 on an eigenbasis, where the package eliminates
constraints. Nothing in the package calls them.

Sign convention of the frame route: for an invariant 1-form,
d a(X, Y) = -a([X, Y]). tests/test_cxs.py::test_realified_structure_equations_roundtrip
checks it against the algebra's brackets, so a global flip fails there.
"""

import argparse
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from nilcx.cxs import (
    AlmostComplexStructure,
    ComplexFrame,
    is_abelian,
    is_integrable,
    j_ascending_series,
)
from nilcx.dolbeault import DolbeaultComplex, VectorForm, _same_frame
from nilcx.errors import NotSolvableError, PreconditionError, SelfCheckError, ValidationError
from nilcx.brackets import infinitesimal_abelian_locus
from nilcx.kuranishi import DeformationSeries, residual_by_degree
from nilcx.lie import LieAlgebra, _null_space, validate_lie
from nilcx.linalg import Matrix, Vector, inverse, is_zero_vector, kernel_basis, rank, rref
from nilcx.poly import coerce_point, mono_add, mono_degree
from nilcx.scalars import I as IMAG
from nilcx.scalars import ONE, ZERO, GaussianRational


def parts(z: GaussianRational) -> tuple:
    """(real part, imaginary part) of a scalar as Fractions, read off its
    integer triple (a, b, d), which means (a + b i)/d."""
    return Fraction(z._a, z._d), Fraction(z._b, z._d)


def _scalar(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v: Vector) -> Vector:
    c = _scalar(c)
    return tuple(c * x for x in v)


def hdot(u: Sequence, v: Sequence) -> GaussianRational:
    """Standard Hermitian form, linear in the first slot."""
    acc = ZERO
    for a, b in zip(u, v, strict=True):
        if a and b:
            acc = acc + _scalar(a) * _scalar(b).conjugate()
    return acc


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
    b = tuple(_scalar(x) for x in b)
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


def in_span(v: Vector, basis: Sequence[Vector]) -> bool:
    if is_zero_vector(v):
        return True
    if not basis:
        return False
    return rank(Matrix(list(basis) + [v])) == rank(Matrix(list(basis)))


def add(*forms: VectorForm) -> VectorForm:
    """The sum of forms of one degree on one frame."""
    out: dict = {}
    for mu in forms:
        if mu.degree != forms[0].degree or not _same_frame(mu.frame, forms[0].frame):
            raise ValidationError("degree or frame mismatch")
        for key, c in mu.coeffs.items():
            out[key] = out.get(key, ZERO) + c
    return VectorForm(forms[0].frame, forms[0].degree, out)


def scaled(c, mu: VectorForm) -> VectorForm:
    return VectorForm(mu.frame, mu.degree, {k: _scalar(c) * x for k, x in mu.coeffs.items()})


def dbar(dc, mu: VectorForm) -> VectorForm:
    """dbar of one chain through the cached matrix; zero from the top degree."""
    if mu.degree >= dc.n:
        return dc.form(mu.degree + 1, {})
    return dc._from_vec(mu.degree + 1, dc.dbar_matrix(mu.degree).matvec(dc._to_vec(mu)))


def schouten_chains(table: dict, mu: dict, nu: dict) -> dict:
    """The graded bracket of two degree-1 chains as a degree-2 chain, one
    pair of keys at a time, with X_a _| d wb^i = sum_q table[(i, a)][q] wb^q
    read off the contraction table ``dc.contraction_table()``:
    {wb^i (x) A, wb^j (x) B} = wb^j ^ (B _| d wb^i) (x) A + wb^i ^ (A _| d wb^j) (x) B."""
    out: dict = {}
    for ((i,), a), x in mu.items():
        for ((j,), b), y in nu.items():
            for front, (ell, leg), v in ((j, (i, b), a), (i, (j, a), b)):
                for q, c in table.get((ell, leg), {}).items():
                    if q != front:
                        key = ((min(front, q), max(front, q)), v)
                        term = x * y * c if front < q else -(x * y * c)
                        out[key] = out.get(key, ZERO) + term
    return {key: c for key, c in out.items() if c}


def schouten(dc, mu: VectorForm, nu: VectorForm) -> VectorForm:
    """:func:`schouten_chains` on two degree-1 forms, symmetric, of degree 2."""
    if mu.degree != 1 or nu.degree != 1:
        raise PreconditionError("bracket arguments must have degree 1")
    return dc.form(2, schouten_chains(dc.contraction_table(), mu.coeffs, nu.coeffs))


def mc_residual(dc, series, t_point) -> VectorForm:
    """dbar Phi(t) + 1/2 {Phi(t), Phi(t)} truncated past the series order:
    the parts of ``residual_by_degree`` up to that order, summed."""
    parts = residual_by_degree(dc, series, t_point).items()
    return add(dc.form(2, {}), *(dc.form(2, v) for d, v in parts if d <= series.order))


def dbar_vector(dc, v) -> VectorForm:
    """dbar of a (1,0)-vector given in real-basis coordinates."""
    cf = dc.frame.to_frame(tuple(v))
    if any(cf[dc.n :]):
        raise PreconditionError("vector is not type (1,0)")
    out: dict = {}
    for jj in range(dc.n):
        for a in range(dc.n):
            if not cf[a]:
                continue
            for b, comp in enumerate(dc._dv[a][jj]):
                if comp:
                    key = ((jj,), b)
                    out[key] = out.get(key, ZERO) + cf[a] * comp
    return VectorForm(dc.frame, 1, out)


def inner_product(dc, mu: VectorForm, nu: VectorForm) -> GaussianRational:
    """The chain inner product, with the chain basis orthonormal."""
    if mu.degree != nu.degree:
        raise ValidationError("degree mismatch")
    total = ZERO
    for key, c in mu.coeffs.items():
        d = nu.coeffs.get(key)
        if d is not None:
            total = total + c * d.conjugate()
    return total


def laplacian(dc, mu: VectorForm) -> VectorForm:
    """The Laplacian applied to one chain, through the cached matrix."""
    k = mu.degree
    return dc._from_vec(k, dc.laplacian_matrix(k).matvec(dc._to_vec(mu)))


def harmonic_projection(dc, mu: VectorForm) -> VectorForm:
    """The orthogonal projection of a chain onto the harmonic space."""
    vec, harm = dc._to_vec(mu), dc.harmonic_vectors(mu.degree)
    terms = (scaled(hdot(vec, h) / hdot(h, h), dc._from_vec(mu.degree, h)) for h in harm)
    return add(dc.form(mu.degree, {}), *terms)


def check_harmonic_is_laplacian_kernel(dc) -> None:
    """Assert, in every degree k, that the harmonic vectors are a basis of
    ker L_k: L_k v = 0 for each of them, and there are dim ker L_k."""
    for k in range(dc.n + 1):
        lap, vecs = dc.laplacian_matrix(k), dc.harmonic_vectors(k)
        for v in vecs:
            assert not any(lap.matvec(v)), f"L_{k} v != 0 for harmonic v = {v}"
        assert len(vecs) == len(kernel_basis(lap)), f"dim H^{k} != dim ker L_{k}"


def off_harmonic_projector(dc, k: int) -> Matrix:
    """I - P_k, with P_k the orthogonal projector onto the harmonic space
    of degree k, built entry by entry from the harmonic basis."""
    dim = dc.chain_dim(k)
    rows = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
    for h in dc.harmonic_vectors(k):
        norm = hdot(h, h)
        for r in range(dim):
            for c in range(dim):
                rows[r][c] = rows[r][c] - h[r] * h[c].conjugate() / norm
    return Matrix(rows)


def kept(dc, name: str) -> dict:
    """{args: value} of what ``dc`` keeps of its method ``name``, read off
    the one dict that ``dolbeault._memo`` fills."""
    return {key[1:]: v for key, v in dc._memo.items() if key[0] == name}


def basis_vector_form(frame: ComplexFrame, anti, a: int) -> VectorForm:
    """The chain generator wb^anti (x) X_a."""
    anti = tuple(anti)
    return VectorForm(frame, len(anti), {(anti, a): ONE})


# ------------------------------------------------------ series by hand


def by_degree(series: DeformationSeries, r: int) -> list:
    """The series' degree-r terms as (monomial, coefficient), by monomial."""
    return sorted(
        ((m, f) for m, f in series.coeffs.items() if mono_degree(m) == r),
        key=lambda kv: kv[0],
    )


def hand_built_series(dc, params: int, order: int, coeffs: dict) -> DeformationSeries:
    """A series from its coefficients alone: {Phi, Phi} through degree
    order + 1 from every ordered pair of terms, one bracket each."""
    table, pos = dc.contraction_table(), dc.chain_index(2)
    brackets: dict = {}
    for ma, fa in coeffs.items():
        for mb, fb in coeffs.items():
            m = mono_add(ma, mb)
            if mono_degree(m) > order + 1:
                continue
            for key, v in schouten_chains(table, fa, fb).items():
                row = brackets.setdefault(m, {})
                row[pos[key]] = row.get(pos[key], ZERO) + v
    brackets = {m: rows for m, rows in brackets.items() if any(rows.values())}
    return DeformationSeries(dc, params, order, coeffs, brackets)


def vanishes_at(obs, t_point) -> bool:
    """True when every polynomial of an obstruction set vanishes at the point."""
    return all(not p.evaluate(t_point) for p in obs.polys)


def eigenbasis_deformed_j(dc, series: DeformationSeries, t_point) -> AlmostComplexStructure:
    """The deformed J as B diag(i, -i) B^-1, B the columns conj(w_j), w_j.

    w_j = Xb_j + sum_a phi_ja X_a spans the deformed (0,1)-space, so J is -i
    on the w_j and +i on their conjugates. Refuses, as ``deform_structure``
    does, where B is singular: the (0,1)-space meets its conjugate.
    """
    pt = coerce_point(t_point, series.params)
    phi = series.evaluate(pt)
    n, frame = dc.n, dc.frame
    cols = []
    for jj in range(n):
        w = list(frame.frame_vector(n + jj))
        for a in range(n):
            c = phi.get(((jj,), a))
            if c:
                w = [wi + c * xi for wi, xi in zip(w, frame.vectors[a])]
        cols.append(tuple(w))
    basis = Matrix.from_columns([tuple(x.conjugate() for x in w) for w in cols] + cols)
    try:
        binv = inverse(basis)
    except NotSolvableError:
        raise PreconditionError(
            "parameter too large: deformed (0,1)-space degenerate at t = ("
            + ", ".join(str(x) for x in pt)
            + ")"
        ) from None
    scaled_rows = [[(IMAG if i < n else -IMAG) * x for x in binv.rows[i]] for i in range(2 * n)]
    return AlmostComplexStructure(basis * Matrix(scaled_rows))


# ------------------------------------------------- catalog facts, live


def differentials_from_brackets(algebra: LieAlgebra) -> dict:
    """Coframe differentials of an algebra, {m: {(i, j): c}} with
    d e^m = sum c e^i ^ e^j over i < j, 1-based."""
    out: dict = {}
    for (i, j), targets in algebra.bracket_table().items():
        for m, c in targets.items():
            out.setdefault(m, {})[(i, j)] = -c
    return out


def abelian_routes(algebra: LieAlgebra, j: AlmostComplexStructure) -> tuple[bool, bool]:
    """(all [Je_a, Je_b] = [e_a, e_b], all [Je_a, e_b] + [e_a, Je_b] = 0),
    over basis pairs, by dense brackets of J's columns."""
    m = algebra.dim
    units = Matrix.identity(m).rows
    cols = j.matrix.columns()
    br = algebra.bracket
    real, imag = True, True
    for a, b in combinations(range(m), 2):
        real = real and br(cols[a], cols[b]) == br(units[a], units[b])
        # [e_a, Je_b] = -[Je_b, e_a]
        imag = imag and is_zero_vector(vsub(br(cols[a], units[b]), br(cols[b], units[a])))
    return real, imag


def center(a: LieAlgebra) -> list[Vector]:
    """Basis of {X : [X, g] = 0}: every row of every ad_j annihilates X."""
    return _null_space(a.dim, [row for ad in a.ad_rows() for row in ad])


def _expect(name: str, key: str, stored, computed):
    if stored != computed:
        raise SelfCheckError(
            f"stale fact {key} for {name}: stored {stored}, computed {computed}"
        )


def verify_entry(entry) -> dict:
    """Recompute every stored fact of a catalog entry and return the live values.

    Raises a self-check error on the first disagreement, naming the fact.
    The structure classifications always run; the cohomology and locus
    facts run when the entry records them (they need an abelian structure).
    """
    live: dict = {}
    report = validate_lie(entry.algebra)
    if not report.ok:
        raise SelfCheckError(f"catalog algebra invalid: {report.errors[0]}")
    live["dim"] = entry.algebra.dim
    live["step"] = report.step
    live["center_dim"] = len(center(entry.algebra))
    for key in ("dim", "step", "center_dim"):
        _expect(entry.name, key, entry.facts[key], live[key])
    for sname, j in entry.structures:
        expected = entry.structure_facts[sname]
        got = {
            "integrable": is_integrable(entry.algebra, j),
            "abelian": is_abelian(entry.algebra, j),
            "nilpotent": j_ascending_series(entry.algebra, j)[1],
        }
        for key, val in expected.items():
            _expect(entry.name, f"{sname}.{key}", val, got[key])
        live[sname] = got
    if "h1_dim" in entry.facts or "locus_dim" in entry.facts:
        dc = DolbeaultComplex(entry.algebra, entry.structures[0][1])
        if "h1_dim" in entry.facts:
            live["h1_dim"] = dc.cohomology(1).dimension
            _expect(entry.name, "h1_dim", entry.facts["h1_dim"], live["h1_dim"])
        if "locus_dim" in entry.facts:
            live["locus_dim"] = len(infinitesimal_abelian_locus(dc))
            _expect(entry.name, "locus_dim", entry.facts["locus_dim"], live["locus_dim"])
    return live


# ------------------------------------------------------- the frame route


class InvariantForm:
    """Invariant (p,q)-form in a frame's coframe coordinates.

    Coefficients are stored on strictly increasing index tuples (I, K),
    meaning sum c_IK w^I ^ wb^K with the determinant convention for wedge
    evaluation. Indices are 0-based.
    """

    __slots__ = ("p", "q", "n", "coeffs")

    def __init__(self, p: int, q: int, n: int, coeffs: dict):
        clean = {}
        for (hol, anti), c in coeffs.items():
            hol, anti = tuple(hol), tuple(anti)
            if len(hol) != p or len(anti) != q:
                raise ValidationError("key arity does not match bidegree")
            if any(not (0 <= x < n) for x in hol + anti):
                raise ValidationError("frame index out of range")
            if any(hol[t] >= hol[t + 1] for t in range(len(hol) - 1)) or any(
                anti[t] >= anti[t + 1] for t in range(len(anti) - 1)
            ):
                raise ValidationError("indices must be strictly increasing")
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                clean[(hol, anti)] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return (
            (self.p, self.q, self.n) == (other.p, other.q, other.n)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.q, self.n, frozenset(self.coeffs.items())))

    def items(self):
        return sorted(self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (hol, anti), c in self.items():
            legs = [f"w{i + 1}" for i in hol] + [f"wb{k + 1}" for k in anti]
            parts.append(f"({c})*" + "^".join(legs))
        return " + ".join(parts)

    def __repr__(self):
        return f"InvariantForm({self.p},{self.q}): {self}"


def omega_form(n: int, i: int) -> InvariantForm:
    """The coframe (1,0)-form w^i, 0-based."""
    return InvariantForm(1, 0, n, {((i,), ()): ONE})


def eigen_frame(algebra: LieAlgebra, j: AlmostComplexStructure) -> ComplexFrame:
    """Deterministic (1,0)-frame from the +i eigenspace of J.

    No ordering along the ascending series; use adapted_frame for that.
    """
    m = algebra.dim
    mat = Matrix(
        [
            [j.matrix[r, c] - (IMAG if r == c else ZERO) for c in range(m)]
            for r in range(m)
        ]
    )
    vecs = kernel_basis(mat)
    if len(vecs) != m // 2:
        raise SelfCheckError("J eigenspace has wrong dimension")
    return ComplexFrame(algebra, vecs)


def exterior_derivative(
    algebra: LieAlgebra, frame: ComplexFrame, form: InvariantForm
) -> dict[tuple[int, int], InvariantForm]:
    """Differential of an invariant 1-form, decomposed by bidegree.

    d a(Z_s, Z_t) = -a([Z_s, Z_t]) on frame labels s < t, with labels
    0..n-1 for X and n..2n-1 for conj X. Only nonzero components are
    returned.
    """
    if form.p + form.q != 1:
        raise PreconditionError(
            f"exterior derivative needs a 1-form, got a ({form.p},{form.q})-form"
        )
    n = frame.n
    # a(Z_c) by frame label
    values = [(hol[0] if hol else n + anti[0], c) for (hol, anti), c in form.coeffs.items()]
    parts: dict = {}
    for s, t in combinations(range(2 * n), 2):
        w = frame.to_frame(algebra.bracket(frame.frame_vector(s), frame.frame_vector(t)))
        val = ZERO
        for c, x in values:
            if w[c]:
                val = val + w[c] * x
        if val:
            hol = tuple(u for u in (s, t) if u < n)
            anti = tuple(u - n for u in (s, t) if u >= n)
            parts.setdefault((len(hol), len(anti)), {})[(hol, anti)] = -val
    return {pq: InvariantForm(*pq, n, comp) for pq, comp in sorted(parts.items())}


def integrability_witness(algebra: LieAlgebra, j: AlmostComplexStructure):
    """(i, part) for the first coframe form w^i of the eigen-frame whose
    differential has a (0,2) part, and that part; None when J is integrable."""
    frame = eigen_frame(algebra, j)
    for i in range(frame.n):
        part = exterior_derivative(algebra, frame, omega_form(frame.n, i)).get((0, 2))
        if part is not None:
            return i, part
    return None


def reference_parser() -> argparse.ArgumentParser:
    """The command line as one add_argument call per argument."""
    parser = argparse.ArgumentParser(
        prog="nilcx",
        description="exact invariant complex structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p, structure=True):
        p.add_argument("file", help="path to an .alg file")
        if structure:
            p.add_argument(
                "--structure",
                default=None,
                help="structure block to use (default: first)",
            )

    p = sub.add_parser("validate", help="Jacobi, step, and structure checks")
    with_file(p, structure=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("series", help="ascending series and adapted frame")
    with_file(p)

    p = sub.add_parser("cohomology", help="harmonic basis in one degree")
    with_file(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("kuranishi", help="deformation series and obstructions")
    with_file(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--at",
        default=None,
        help="comma-separated rational coordinates in the printed basis order",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("abelian-locus", help="infinitesimal abelian subspace")
    with_file(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="list built-ins or emit one as .alg")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--s", default="1", help="n10 parameter s (rational)")
    p.add_argument("--t", default="0", help="n10 parameter t (rational)")
    p.add_argument("--n", type=int, default=3, help="torus half-dimension")
    return parser
