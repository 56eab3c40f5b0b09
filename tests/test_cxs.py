"""Complex-structure layer: integrability, abelianness, adapted frames,
and the (p,q) parts of the differentials of invariant 1-forms, which the
frame route of tests/reference.py computes and the structure tests are
checked against.

Expected structure coefficients below were computed by hand from
d w(X, Y) = -w([X, Y]) on the adapted frames and are asserted exactly.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import abelian, error_of, filiform4, h9, h15, j_std6, jst, n10, pair_j, unit
from reference import (
    InvariantForm,
    center,
    eigen_frame,
    exterior_derivative,
    in_span,
    integrability_witness,
    omega_form,
    parts,
)

from nilcx.cxs import (
    abelian_defect,
    AlmostComplexStructure,
    ComplexFrame,
    adapted_frame,
    is_abelian,
    is_integrable,
    j_ascending_series,
)
from nilcx.errors import (
    NotSolvableError,
    PreconditionError,
    SelfCheckError,
    ValidationError,
)
from nilcx.dolbeault import DolbeaultComplex
from nilcx.lie import LieAlgebra, ascending_series
from nilcx.linalg import Matrix, inverse, kernel_basis, row_space_basis
from nilcx.scalars import gr

I = gr(0, 1)


# ---------------------------------------------------------------- validation


def test_j_square_must_be_minus_identity():
    with pytest.raises(ValidationError, match="J\\*J != -I"):
        AlmostComplexStructure(Matrix.identity(4))


def test_j_rejects_odd_dimension():
    with pytest.raises(ValidationError):
        AlmostComplexStructure(Matrix([[gr(0)]]))


def test_j_rejects_complex_entries():
    m = Matrix([[I, gr(0)], [gr(0), I]])
    with pytest.raises(ValidationError, match="real"):
        AlmostComplexStructure(m)


def test_from_images_completes_the_closure():
    j = AlmostComplexStructure.from_images(
        6, {0: unit(6, 1), 2: unit(6, 3), 4: unit(6, 5)}
    )
    assert j == j_std6()


def test_from_images_incomplete_rejected():
    with pytest.raises(ValidationError, match="incomplete"):
        AlmostComplexStructure.from_images(4, {0: unit(4, 1)})


def test_from_images_fixed_vector_rejected():
    # J e1 = e1 forces J e1 = -e1 as well
    with pytest.raises(ValidationError, match="inconsistent"):
        AlmostComplexStructure.from_images(2, {0: unit(2, 0)})


def test_from_images_overlapping_inconsistent():
    images = {0: unit(4, 1), 1: unit(4, 2), 2: unit(4, 3)}
    with pytest.raises(ValidationError, match="inconsistent"):
        AlmostComplexStructure.from_images(4, images)


def test_invariant_form_rejects_bad_keys():
    with pytest.raises(ValidationError):
        InvariantForm(1, 0, 3, {((0, 1), ()): gr(1)})
    with pytest.raises(ValidationError):
        InvariantForm(0, 2, 3, {((), (2, 1)): gr(1)})
    with pytest.raises(ValidationError):
        InvariantForm(1, 0, 3, {((5,), ()): gr(1)})


# ------------------------------------------------- integrability / abelianness


def test_h9_standard_j_is_abelian_and_integrable():
    a, j = h9(), j_std6()
    assert is_abelian(a, j)
    assert is_integrable(a, j)


def test_h15_standard_j_is_abelian():
    assert is_abelian(h15(), j_std6())


def test_torus_j_is_abelian():
    a = abelian(6)
    assert is_abelian(a, j_std6())
    assert is_integrable(a, j_std6())


def test_filiform_j_not_integrable_with_witness():
    a = filiform4()
    j = pair_j(4, [(0, 1), (2, 3)])
    assert is_integrable(a, j) is False
    index, comp = integrability_witness(a, j)
    assert index is not None
    assert (comp.p, comp.q) == (0, 2)
    assert comp.coeffs


def test_filiform_j_not_abelian():
    assert not is_abelian(filiform4(), pair_j(4, [(0, 1), (2, 3)]))


def test_n10_family_integrable_but_not_abelian():
    a = n10()
    j = jst(1, Fraction(1, 2))
    assert is_integrable(a, j)
    assert not is_abelian(a, j)


def test_n10_family_abelian_member():
    assert is_abelian(n10(), jst(1, 0))


@pytest.mark.parametrize("s,t", [(1, "1/2"), (2, 1), (1, 0)])
def test_n10_abelian_implies_integrable(s, t):
    a = n10()
    j = jst(s, Fraction(t))
    if is_abelian(a, j):
        assert is_integrable(a, j)


# ------------------------------------------------------------ J-series


def test_j_series_matches_central_series_for_abelian_j():
    a, j = h9(), j_std6()
    flag, nilpotent = j_ascending_series(a, j)
    assert nilpotent
    plain = ascending_series(a)
    assert flag.dims == plain.dims
    for ell in range(1, flag.depth + 1):
        assert row_space_basis(flag.level(ell)) == row_space_basis(plain.level(ell))


def test_j_series_one_step_on_torus():
    flag, nilpotent = j_ascending_series(abelian(6), j_std6())
    assert nilpotent
    assert flag.depth == 1


def test_n10_generic_member_j_series_exhausts():
    # the levels start below the full center: only the plane fixed by J
    # survives the first step, yet three steps still reach everything
    flag, nilpotent = j_ascending_series(n10(), jst(1, Fraction(1, 2)))
    assert nilpotent
    assert flag.depth == 3
    assert flag.dims == (2, 6, 10)


def test_n10_abelian_member_is_j_nilpotent():
    _, nilpotent = j_ascending_series(n10(), jst(1, 0))
    assert nilpotent


def test_n10_is_a_nilpotent_lie_algebra():
    from nilcx.lie import validate_lie

    report = validate_lie(n10())
    assert report.ok
    assert report.step == 2


def test_n10_generic_center_not_j_invariant():
    a, j = n10(), jst(1, Fraction(1, 2))
    z = center(a)
    assert len(z) == 4
    assert any(not in_span(j.matrix.matvec(v), z) for v in z)


# --------------------------------------------------------- adapted frames


def test_adapted_frame_h9_matches_expected_vectors():
    a = h9()
    f = adapted_frame(a, j_std6())
    assert f.levels == (1, 2, 3)
    assert f.vectors[0] == (gr(0), gr(0), gr(0), gr(0), gr(1), gr(0, -1))
    assert f.vectors[1] == (gr(0), gr(0), gr(1), gr(0, -1), gr(0), gr(0))
    assert f.vectors[2] == (gr(1), gr(0, -1), gr(0), gr(0), gr(0), gr(0))


def test_adapted_frame_h15_center_first():
    f = adapted_frame(h15(), j_std6())
    assert f.levels == (1, 2, 3)
    assert f.vectors[0] == (gr(0), gr(0), gr(0), gr(0), gr(1), gr(0, -1))


def test_adapted_frame_level_prefixes_span_series():
    a = h15()
    f = adapted_frame(a, j_std6())
    flag = ascending_series(a)
    for ell in range(1, flag.depth + 1):
        reals = []
        for i, lv in enumerate(f.levels):
            if lv <= ell:
                reals.append(tuple(gr(parts(x)[0]) for x in f.vectors[i]))
                reals.append(tuple(gr(parts(x)[1]) for x in f.vectors[i]))
        assert row_space_basis(reals) == row_space_basis(flag.level(ell))


def test_adapted_frame_requires_series_preservation():
    a = h9()
    # swaps the center with part of the top level
    j = pair_j(6, [(4, 0), (2, 3), (1, 5)])
    with pytest.raises(PreconditionError, match="ascending series"):
        adapted_frame(a, j)


def test_adapted_frame_is_deterministic():
    a, j = h15(), j_std6()
    f1, f2 = adapted_frame(a, j), adapted_frame(a, j)
    assert f1.vectors == f2.vectors


def test_eigen_frame_vectors_are_eigenvectors():
    a, j = h9(), j_std6()
    f = eigen_frame(a, j)
    assert f.n == 3
    f.check_against(j)


# --------------------------------------------- structure coefficients and d


def structure_coefficients(a, f):
    """A with d w^i = sum A[i,j,k] w^j ^ wb^k, 0-based; only (1,1) parts allowed."""
    coeffs = {}
    for i in range(f.n):
        comps = exterior_derivative(a, f, omega_form(f.n, i))
        assert set(comps) <= {(1, 1)}, comps
        for ((jj,), (k,)), c in comps.get((1, 1), InvariantForm(1, 1, f.n, {})).coeffs.items():
            coeffs[(i, jj, k)] = c
    return coeffs


def test_structure_coefficients_h9_exact():
    a, j = h9(), j_std6()
    f = adapted_frame(a, j)
    coeffs = structure_coefficients(a, f)
    assert coeffs == {
        (0, 1, 2): gr(0, 1),
        (0, 2, 1): gr(0, -1),
        (1, 2, 2): gr(0, -1),
    }


def test_structure_coefficients_h15_exact():
    a, j = h15(), j_std6()
    f = adapted_frame(a, j)
    coeffs = structure_coefficients(a, f)
    assert coeffs == {(0, 2, 1): gr(-2), (1, 2, 2): gr(-1)}


def test_structure_coefficients_reject_nonabelian():
    a = filiform4()
    j = pair_j(4, [(0, 1), (2, 3)])
    f = eigen_frame(a, j)
    types = set()
    for i in range(f.n):
        types |= set(exterior_derivative(a, f, omega_form(f.n, i)))
    assert types - {(1, 1)}


def _d_of_real_covector(a, f, k):
    """d e^k via the frame route: expand e^k in the coframe, push through d.

    Returns the (1,1) coefficients {((j,), (l,)): c} of d e^k = sum c w^j ^ wb^l.
    """
    n = f.n
    total = {}
    for jj in range(n):
        x = f.vectors[jj][k]
        wb = InvariantForm(0, 1, n, {((), (jj,)): 1})
        for form, c in ((omega_form(n, jj), x), (wb, x.conjugate())):
            comps = exterior_derivative(a, f, form)
            assert set(comps) <= {(1, 1)}
            for key, y in comps.get((1, 1), InvariantForm(1, 1, n, {})).coeffs.items():
                total[key] = total.get(key, gr(0)) + c * y
    return total


def _evaluate(f, coeffs, x, y):
    """The (1,1)-form with these coefficients at (e_x, e_y): w^j ^ wb^k pairs as a determinant."""
    u, v = f.to_frame(unit(2 * f.n, x)), f.to_frame(unit(2 * f.n, y))
    return sum(
        (c * (u[j] * v[f.n + k] - v[j] * u[f.n + k]) for ((j,), (k,)), c in coeffs.items()),
        gr(0),
    )


@pytest.mark.parametrize("name", ["h9", "h15"])
def test_realified_structure_equations_roundtrip(name):
    a = {"h9": h9, "h15": h15}[name]()
    j = j_std6()
    f = adapted_frame(a, j)
    m = a.dim
    for k in range(m):
        dk = _d_of_real_covector(a, f, k)
        for x in range(m):
            for y in range(x + 1, m):
                got = _evaluate(f, dk, x, y)
                want = -a.bracket(unit(m, x), unit(m, y))[k]
                assert got == want, (k, x, y)


def test_h9_realified_oracle_values():
    # d e^3 = -e^{12} and d e^6 = -e^{13} - e^{24} in real coordinates
    a, j = h9(), j_std6()
    f = adapted_frame(a, j)
    d3 = _d_of_real_covector(a, f, 2)
    d6 = _d_of_real_covector(a, f, 5)

    def ev(form, x, y):
        return _evaluate(f, form, x, y)
    assert ev(d3, 0, 1) == gr(-1)
    assert ev(d3, 0, 2) == gr(0)
    assert ev(d6, 0, 2) == gr(-1)
    assert ev(d6, 1, 3) == gr(-1)
    assert ev(d6, 0, 3) == gr(0)
    assert ev(d6, 0, 1) == gr(0)


def test_exterior_derivative_vanishes_on_torus():
    a, j = abelian(6), j_std6()
    f = adapted_frame(a, j)
    for i in range(3):
        assert exterior_derivative(a, f, omega_form(3, i)) == {}
        assert exterior_derivative(a, f, InvariantForm(0, 1, 3, {((), (i,)): 1})) == {}


def test_exterior_derivative_takes_one_forms_only():
    a, j = h15(), j_std6()
    f = adapted_frame(a, j)
    for form in (InvariantForm(0, 0, 3, {((), ()): gr(1)}), InvariantForm(1, 1, 3, {})):
        with pytest.raises(PreconditionError, match="needs a 1-form"):
            exterior_derivative(a, f, form)


def test_dbar_closed_conjugates():
    j = j_std6()
    for make in (h9, h15):
        assert DolbeaultComplex(make(), j).n == 3
    # the (0,2) part of d wb^l vanishes exactly for abelian J, checked up front
    with pytest.raises(PreconditionError, match=r"^J is not abelian: \[Je1, Je3\] != \[e1, e3\]$"):
        DolbeaultComplex(filiform4(), pair_j(4, [(0, 1), (2, 3)]))


def test_frame_rejects_dependent_vectors():
    a = h9()
    v = (gr(1), gr(0, -1), gr(0), gr(0), gr(0), gr(0))
    with pytest.raises(ValidationError):
        ComplexFrame(a, [v, v, v])


# ------------------------------------------------ J from images, errors named


def _conjugate_of_standard(rng, m):
    """P J0 P^-1 for the standard J0 and a random invertible rational P."""
    while True:
        p = Matrix(
            [[gr(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) for _ in range(m)] for _ in range(m)]
        )
        try:
            p_inv = inverse(p)
        except NotSolvableError:
            continue
        j0 = pair_j(m, [(a, a + 1) for a in range(0, m, 2)])
        return AlmostComplexStructure(p * j0.matrix * p_inv)


def test_from_images_one_index_per_pair_matches_all_columns():
    rng = random.Random(20261020)
    for case in range(35):
        m = 2 * (1 + case % 4)
        j = _conjugate_of_standard(rng, m)
        everything = {i: j.matrix.column(i) for i in range(m)}
        assert AlmostComplexStructure.from_images(m, everything) == j
        # keep e_i only when it lies outside the span of the pairs kept so far
        kept, span = {}, []
        for i in rng.sample(range(m), m):
            if not in_span(unit(m, i), span):
                kept[i] = everything[i]
                span += [unit(m, i), everything[i]]
        assert len(kept) == m // 2
        assert AlmostComplexStructure.from_images(m, kept) == j
        # drop a pair: incomplete; a fixed line or a swapped pair: inconsistent
        if m >= 4:
            short = dict(list(kept.items())[1:])
            with pytest.raises(ValidationError, match="incomplete"):
                AlmostComplexStructure.from_images(m, short)
            a, b = rng.sample(range(m), 2)
            c = gr(Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])))
            for bad in ({a: tuple(c * x for x in unit(m, a))}, {a: unit(m, b), b: unit(m, a)}):
                with pytest.raises(ValidationError, match="inconsistent"):
                    AlmostComplexStructure.from_images(m, bad)


def test_series_preservation_error_names_level_and_vector():
    with pytest.raises(PreconditionError) as info:
        adapted_frame(n10(), jst(2, 1))
    assert str(info.value) == (
        "J does not preserve ascending series: level 1 basis vector "
        "(1)*e6 is mapped outside the level"
    )


def test_frame_check_names_the_failing_vector():
    f = adapted_frame(h9(), j_std6())
    # same pairs as the standard J, with the top pair's orientation flipped
    other = pair_j(6, [(1, 0), (2, 3), (4, 5)])
    with pytest.raises(SelfCheckError, match=r"frame vector is not a \(1,0\)-vector of J: X3$"):
        f.check_against(other)


def test_quotient_check_names_the_level(monkeypatch):
    import nilcx.lie as lie

    a = h9()
    top = tuple(unit(6, i) for i in range(6))
    center = (unit(6, 5),)
    # a flag whose level 2 is the whole algebra: [e1, e2] = e3 is not central
    monkeypatch.setattr(lie, "ascending_flag", lambda dim, maps: (lie.Flag((center, top)), True))
    with pytest.raises(SelfCheckError, match="ascending series quotient not abelian at level 2$"):
        ascending_series(a)


# ------------------------------------- real structure tests vs the frame


def _frame_oracle(a, j):
    """(integrable, abelian) from the types of d w^i on the eigen-frame."""
    frame = eigen_frame(a, j)
    types = set()
    for i in range(frame.n):
        types |= set(exterior_derivative(a, frame, omega_form(frame.n, i)))
    return (0, 2) not in types, not types & {(2, 0), (0, 2)}


def _rational_basis_change(m, rng):
    """A seeded rational P: unit triangular times a permutation."""
    perm = list(range(m))
    rng.shuffle(perm)
    rows = []
    for r in range(m):
        row = [gr(0)] * m
        row[perm[r]] = gr(1)
        for c in range(m):
            if perm[c] > perm[r] and rng.random() < 0.3:
                row[perm[c]] = gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        rows.append(row)
    return Matrix(rows)


def _rational_conjugate(j, rng):
    """P J P^-1 for a seeded rational P."""
    p = _rational_basis_change(j.dim, rng)
    return AlmostComplexStructure(p * j.matrix * inverse(p))


def _conjugate_pair(a, j, rng):
    """(g, J) in the basis f_i = P e_i for a seeded rational P."""
    p = _rational_basis_change(a.dim, rng)
    p_inv = inverse(p)
    cols = p.columns()
    brackets = {}
    for x in range(a.dim):
        for y in range(x + 1, a.dim):
            w = p_inv.matvec(a.bracket(cols[x], cols[y]))
            if any(w):
                brackets[(x + 1, y + 1)] = {k + 1: c for k, c in enumerate(w) if c}
    return LieAlgebra(a.dim, brackets), AlmostComplexStructure(p_inv * j.matrix * p)


def _reference_frame(a, j):
    """adapted_frame's vectors and levels with each membership by in_span, or
    None when J moves a series level."""
    flag = ascending_series(a)
    for ell in range(1, flag.depth + 1):
        lv = list(flag.level(ell))
        if any(not in_span(j.matrix.matvec(b), lv) for b in lv):
            return None
    chosen, span, levels = [], [], []
    for ell in range(1, flag.depth + 1):
        for b in flag.level(ell):
            if in_span(b, span):
                continue
            jb = j.matrix.matvec(b)
            assert not in_span(jb, span + [b])
            chosen.append(tuple(x - I * y for x, y in zip(b, jb)))
            span += [b, jb]
            levels.append(ell)
    return tuple(chosen), tuple(levels)


def test_adapted_frame_matches_the_in_span_reference():
    from nilcx.catalog import get

    rng = random.Random(20261021)
    entries = [get("h9"), get("h15"), get("torus", n=2), get("torus", n=3), get("n10", s=1, t=0)]
    cases = [(e.algebra, j) for e in entries for _, j in e.structures]
    cases.append((n10(), jst(2, 1)))
    cases += [_conjugate_pair(a, j, rng) for a, j in list(cases) for _ in range(3)]
    outcomes = set()
    for a, j in cases:
        want = _reference_frame(a, j)
        if want is None:
            with pytest.raises(PreconditionError, match="J does not preserve ascending series: level"):
                adapted_frame(a, j)
        else:
            f = adapted_frame(a, j)
            assert (f.vectors, f.levels) == want
        outcomes.add(want is None)
    assert outcomes == {True, False}


def _frame_contraction_table(a, frame):
    """table[(l, a)][q] = c with d wb^l = sum c w^a ^ wb^q, by the frame route."""
    table = {}
    for ell in range(frame.n):
        comps = exterior_derivative(a, frame, InvariantForm(0, 1, frame.n, {((), (ell,)): 1}))
        assert set(comps) <= {(1, 1)}
        for ((i,), (q,)), c in comps.get((1, 1), InvariantForm(1, 1, frame.n, {})).coeffs.items():
            table.setdefault((ell, i), {})[q] = c
    return table


def test_contraction_table_matches_the_frame_route():
    from nilcx.catalog import get

    rng = random.Random(20261021)
    entries = [get("h9"), get("h15"), get("n10", s=1, t=0), get("torus", n=3)]
    cases = [(e.algebra, j) for e in entries for _, j in e.structures]
    cases += [_conjugate_pair(a, j, rng) for a, j in list(cases) for _ in range(3)]
    empty = []
    for a, j in cases:
        dc = DolbeaultComplex(a, j)
        want = _frame_contraction_table(a, dc.frame)
        assert dc.contraction_table() == want, a
        empty.append(not want)
    # only the torus and its conjugates have no bracket
    assert empty == [False] * 3 + [True] + [False] * 9 + [True] * 3
    # by hand on h15: d wb1 = 2 w2 ^ wb3, d wb2 = w3 ^ wb3, d wb3 = 0
    want = {(0, 1): {2: gr(2)}, (1, 2): {2: gr(1)}}
    assert DolbeaultComplex(h15(), j_std6()).contraction_table() == want


def test_real_structure_tests_match_the_frame_oracle():
    from nilcx.catalog import get

    rng = random.Random(20261020)
    cases = [(e.algebra, j) for e in (get("h9"), get("h15"), get("torus", n=2)) for _, j in e.structures]
    cases.append((filiform4(), pair_j(4, [(0, 1), (2, 3)])))
    grid = [Fraction(x) for x in (-2, -1, 0, Fraction(1, 2), 1, 3)]
    cases += [(n10(), jst(s, t)) for s in grid for t in grid if s * s != t * t][::3]
    cases += [(a, _rational_conjugate(j, rng)) for a, j in list(cases) for _ in range(2)]
    seen, pairs = set(), set()
    for a, j in cases:
        got = (is_integrable(a, j), is_abelian(a, j))
        assert got == _frame_oracle(a, j), (a, j.matrix)
        seen.add(got)
        pair = abelian_defect(a, j)
        assert pair == _first_non_abelian_pair(a, j), (a, j.matrix)
        pairs.add(pair)
    assert seen == {(True, True), (True, False), (False, False)}
    assert len(pairs) >= 3 and None in pairs


def _first_non_abelian_pair(a, j):
    """The first pair x < y, 1-based, with [J e_x, J e_y] != [e_x, e_y], by dense brackets."""
    cols = [j.matrix.column(k) for k in range(a.dim)]
    for x, y in combinations(range(a.dim), 2):
        if a.bracket(cols[x], cols[y]) != a.bracket(unit(a.dim, x), unit(a.dim, y)):
            return x + 1, y + 1
    return None


def test_integrability_witness_is_read_from_the_frame_on_demand():
    # the verdict is a plain bool; the witness comes from the frame route
    a, j = filiform4(), pair_j(4, [(0, 1), (2, 3)])
    assert is_integrable(a, j) is False and is_integrable(h9(), j_std6()) is True
    frame = eigen_frame(a, j)
    firsts = [i for i in range(2) if (0, 2) in exterior_derivative(a, frame, omega_form(2, i))]
    index, part = integrability_witness(a, j)
    assert index == firsts[0] == 1
    assert part == exterior_derivative(a, frame, omega_form(2, 1))[(0, 2)]
    assert integrability_witness(h9(), j_std6()) is None


# ------------------------------- sparse-row series against a dense reference


def _dense_flag(dim, maps):
    """V_l = {X : M X in V_(l-1) for every M}, on dense matrices: the kernel
    of the stacked products N M, N an annihilator of V_(l-1)."""
    levels, current = [], []
    while True:
        ann = Matrix(kernel_basis(Matrix(current))) if current else Matrix.identity(dim)
        rows = [row for m in maps for row in (ann * m).rows]
        nxt = row_space_basis(kernel_basis(Matrix(rows)))
        if len(nxt) == len(current):
            return tuple(levels), len(current) == dim
        current = nxt
        levels.append(tuple(current))
        if len(current) == dim:
            return tuple(levels), True


@pytest.mark.parametrize(
    "name, build",
    [
        ("h9", lambda: (h9(), j_std6())),
        ("h15", lambda: (h15(), j_std6())),
        ("torus3", lambda: (abelian(6), j_std6())),
        ("n10(1,1/2)", lambda: (n10(), jst(1, Fraction(1, 2)))),
        ("n10(2,1/3)", lambda: (n10(), jst(2, Fraction(1, 3)))),
        ("filiform4", lambda: (filiform4(), pair_j(4, [(0, 1), (2, 3)]))),
    ],
)
def test_sparse_series_match_a_dense_reference(name, build):
    base = build()
    rng = random.Random(f"sparse-series:{name}")
    # the algebra and J, then two seeded rational conjugates of both
    for a, j in [base, _conjugate_pair(*base, rng), _conjugate_pair(*base, rng)]:
        m = a.dim
        ads = [
            Matrix.from_columns([a.bracket(unit(m, x), unit(m, y)) for y in range(m)])
            for x in range(m)
        ]
        levels, reached = _dense_flag(m, ads)
        assert reached and ascending_series(a).levels == levels
        levels, nilpotent = _dense_flag(m, ads + [ad * j.matrix for ad in ads])
        flag, verdict = j_ascending_series(a, j)
        assert (flag.levels, verdict) == (levels, nilpotent)


def test_api_error_messages():
    def acs(rows):
        return lambda: AlmostComplexStructure(Matrix(rows))

    i = gr(0, 1)
    assert error_of(acs([[0, 1, 0], [-1, 0, 0]])) == (ValidationError, "J must be square")
    assert error_of(acs([[1]])) == (ValidationError, "J needs an even-dimensional space")
    assert error_of(acs([[0, i], [i, 0]])) == (ValidationError, "J must be real")
    assert error_of(acs([[1, 0], [0, 1]])) == (ValidationError, "J*J != -I")
    assert error_of(lambda: ComplexFrame(h9(), [(1, 0, 0, 0, 0, 0)])) == (
        ValidationError, "frame size must be half the real dimension"
    )
    assert error_of(lambda: ComplexFrame(abelian(2), [(1, 0)])) == (
        ValidationError, "frame vectors do not span the complexification"
    )
    # the conjugate frame spans the (0,1)-space of J
    frame = adapted_frame(h9(), j_std6())
    conjugate = ComplexFrame(h9(), [[x.conjugate() for x in v] for v in frame.vectors])
    assert error_of(lambda: conjugate.check_against(j_std6())) == (
        SelfCheckError, "frame vector is not a (1,0)-vector of J: X1"
    )
