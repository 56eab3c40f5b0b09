"""Deformation machinery against hand-computed brackets and series.

The expected forms below were worked out by hand from the contraction
tables of the two six-dimensional examples:

  first algebra (three-step):   d wb1 = i w3^wb2 - i w2^wb3,
                                d wb2 = i w3^wb3,        d wb3 = 0
  second algebra (h15 layout):  d wb1 = 2 w2^wb3,
                                d wb2 = w3^wb3,          d wb3 = 0

and frozen before running the code. Parameter coordinates follow the
deterministic degree-1 harmonic bases; for the second algebra these are
  t1: wb1 (x) X1     t2: wb1 (x) X2     t3: wb2 (x) X2
  t4: wb3 (x) X1     t5: -1/2 wb2 (x) X1 + wb3 (x) X2
so the coform-flat directions are exactly {t2 = t3 = 0}.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import cli_sweep
from conftest import abelian, error_of, h9, h15, j_std6, jst, n10, pair_j
from reference import (
    InvariantForm,
    add,
    by_degree,
    dbar,
    eigenbasis_deformed_j,
    hand_built_series,
    inner_product,
    kept,
    laplacian,
    mc_residual,
    scaled,
    schouten,
    vanishes_at,
)
from nilcx.brackets import _coform_core, infinitesimal_abelian_locus
from nilcx.catalog import get, render_entry
from nilcx.cli import main
from nilcx.dolbeault import DolbeaultComplex, chain_text
from nilcx.errors import PreconditionError, ValidationError
from nilcx.kuranishi import (
    DeformationSeries,
    DeformedStructure,
    _bracket_pass,
    classify_deformation,
    deform_structure,
    kuranishi_series,
    obstructions,
    residual_by_degree,
)
from nilcx.linalg import pinv
from nilcx.poly import Poly, mono_degree, mono_eval
from nilcx.scalars import gr


def dc_h9():
    return DolbeaultComplex(h9(), j_std6())


def dc_h15():
    return DolbeaultComplex(h15(), j_std6())


def dc_torus():
    return DolbeaultComplex(abelian(4), pair_j(4, [(0, 1), (2, 3)]))


def rand_form(dc, k, rng):
    coeffs = {}
    for key in dc.chain_basis(k):
        coeffs[key] = gr(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
    return dc.form(k, coeffs)


# ------------------------------------------------------------- schouten


def test_schouten_h9_harmonic_pairs_all_vanish():
    dc = dc_h9()
    basis = dc.cohomology(1).harmonic_basis
    for u in basis:
        for v in basis:
            assert not schouten(dc, u, v).coeffs


def test_schouten_h15_diagonal_pin():
    dc = dc_h15()
    b = dc.cohomology(1).harmonic_basis
    expected = dc.form(2, {((0, 2), 1): gr(4)})
    assert schouten(dc, b[1], b[1]) == expected


def test_schouten_h15_mixed_pins():
    dc = dc_h15()
    b = dc.cohomology(1).harmonic_basis
    assert schouten(dc, b[0], b[1]) == dc.form(2, {((0, 2), 0): gr(2)})
    assert schouten(dc, b[0], b[2]) == dc.form(2, {((1, 2), 0): gr(2)})
    assert schouten(dc, b[1], b[2]) == dc.form(2, {((1, 2), 1): gr(2)})
    assert not schouten(dc, b[0], b[3]).coeffs
    assert not schouten(dc, b[4], b[4]).coeffs


def test_schouten_symmetric_on_random_pairs():
    dc = dc_h15()
    rng = random.Random(509)
    for _ in range(100):
        u = rand_form(dc, 1, rng)
        v = rand_form(dc, 1, rng)
        assert schouten(dc, u, v) == schouten(dc, v, u)


def test_schouten_bilinear():
    dc = dc_h15()
    rng = random.Random(71)
    u, v, w = (rand_form(dc, 1, rng) for _ in range(3))
    left = schouten(dc, add(u, scaled(3, v)), w)
    assert left == add(schouten(dc, u, w), scaled(3, schouten(dc, v, w)))


def test_schouten_torus_vanishes():
    dc = dc_torus()
    rng = random.Random(12)
    for _ in range(10):
        assert not schouten(dc, rand_form(dc, 1, rng), rand_form(dc, 1, rng)).coeffs


def test_schouten_rejects_wrong_degree():
    dc = dc_h15()
    with pytest.raises(PreconditionError):
        schouten(dc, dc.form(2, {}), dc.form(1, {}))


# ------------------------------------------------- bracket with a coform


def coform_bracket(dc, mu, ell):
    """{mu, wb^ell} = wb^i ^ (A _| d wb^ell), the scalar (0,2)-form the locus reads."""
    core = _coform_core(dc.contraction_table(), mu.coeffs, ell)
    return InvariantForm(0, 2, dc.n, {((), pair): c for pair, c in core.items()})


def test_coform_bracket_h9_all_flat():
    dc = dc_h9()
    for h in dc.cohomology(1).harmonic_basis:
        for ell in range(3):
            assert not coform_bracket(dc, h, ell).coeffs


def test_coform_bracket_h15_pins():
    dc = dc_h15()
    b = dc.cohomology(1).harmonic_basis
    assert coform_bracket(dc, b[1], 0) == InvariantForm(0, 2, 3, {((), (0, 2)): gr(2)})
    assert coform_bracket(dc, b[2], 0) == InvariantForm(0, 2, 3, {((), (1, 2)): gr(2)})
    for i in (0, 3, 4):
        for ell in range(3):
            assert not coform_bracket(dc, b[i], ell).coeffs
    for i in (1, 2):
        assert not coform_bracket(dc, b[i], 1).coeffs
        assert not coform_bracket(dc, b[i], 2).coeffs


# --------------------------------------------------------------- series


def test_series_h9_terminates_after_linear_term():
    ser = kuranishi_series(dc_h9(), order=6)
    assert ser.params == 3
    assert len(ser.coeffs) == 3
    assert all(mono_degree(m) == 1 for m in ser.coeffs)


def test_series_order_one_is_linear_part():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=1)
    assert sorted(ser.coeffs) == [
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    basis = dc.cohomology(1).harmonic_basis
    for k, h in enumerate(basis):
        mono = tuple(1 if j == k else 0 for j in range(5))
        # equal to the harmonic form, and not the cached basis's own dict
        assert ser.coeffs[mono] == h.coeffs and ser.coeffs[mono] is not h.coeffs


def test_series_h15_quadratic_coefficients_exact():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=2)
    quad = dict(by_degree(ser, 2))
    assert quad == {
        (0, 1, 1, 0, 0): {((1,), 2): gr(-2)},
        (0, 2, 0, 0, 0): {((0,), 2): gr(Fraction(-2, 5))},
        (1, 0, 1, 0, 0): {((2,), 2): gr(1)},
    }


def test_series_linear_coefficients_are_harmonic():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=2)
    for mono, f in by_degree(ser, 1):
        assert not laplacian(dc, dc.form(1, f)).coeffs


def test_series_higher_coefficients_orthogonal_to_harmonics():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    basis = dc.cohomology(1).harmonic_basis
    seen = False
    for m, f in ser.coeffs.items():
        if mono_degree(m) < 2:
            continue
        seen = True
        for h in basis:
            assert not inner_product(dc, dc.form(1, f), h)
    assert seen


def test_series_recursion_reproducible_through_public_operators():
    dc = dc_h15()
    order = 4
    ser = kuranishi_series(dc, order=order)
    for m, f in ser.coeffs.items():
        r = mono_degree(m)
        if r < 2:
            continue
        total = dc.form(2, {})
        for ma, fa in ser.coeffs.items():
            for mb, fb in ser.coeffs.items():
                if tuple(x + y for x, y in zip(ma, mb)) == m:
                    total = add(total, schouten(dc, dc.form(1, fa), dc.form(1, fb)))
        rebuilt = scaled(Fraction(-1, 2), dc.dbar_adjoint(dc.green(total)))
        assert rebuilt.coeffs == f


def test_series_higher_monomials_avoid_flat_directions():
    ser = kuranishi_series(dc_h15(), order=4)
    for m in ser.coeffs:
        if mono_degree(m) >= 2:
            assert m[1] > 0 or m[2] > 0


def test_series_deterministic_across_instances():
    a = kuranishi_series(dc_h15(), order=3)
    b = kuranishi_series(dc_h15(), order=3)
    assert sorted(a.coeffs) == sorted(b.coeffs)
    for m in a.coeffs:
        assert a.coeffs[m] == b.coeffs[m]


def test_series_rejects_bad_order():
    with pytest.raises(PreconditionError):
        kuranishi_series(dc_h9(), order=0)


class _CountedLookups(dict):
    """A dict that counts its reads by key."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_bracket_pass_stops_where_the_series_ends(tmp_path, capsys):
    """On h9 every bracket of two linear terms vanishes, so the series ends
    at degree 1 and nothing past degree 2 can be nonzero: the pass reads
    by_degree three times at order 1000, and the output at order 3000 is the
    output at order 6."""
    dc = dc_h9()
    coh = dc.cohomology(1)
    p = coh.dimension
    monos = [tuple(int(j == k) for j in range(p)) for k in range(p)]
    linear = [(m, h.coeffs) for m, h in zip(monos, coh.harmonic_basis)]
    by_degree = _CountedLookups({1: linear})
    assert _bracket_pass(dc, by_degree, 1000) == {}
    assert by_degree.lookups == 3
    assert by_degree == {1: linear, 2: []}

    path = tmp_path / "h9.alg"
    path.write_text(render_entry(get("h9")))
    docs = []
    for order in (6, 3000):
        argv = ["kuranishi", str(path), "--order", str(order), "--at", "1/10,0,0", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("order") == order
        docs.append(doc)
    assert docs[0] == docs[1]


def test_series_constructor_validation():
    dc = dc_h9()
    with pytest.raises(ValidationError):
        DeformationSeries(dc, 3, 1, {(1, 0): {}}, {})
    with pytest.raises(ValidationError):
        DeformationSeries(dc, 3, 1, {(2, 0, 0): {}}, {})
    # a coefficient is a degree-1 chain: one with a degree-2 key is refused
    with pytest.raises(ValidationError, match="degree-1 chains"):
        DeformationSeries(dc, 3, 1, {(1, 0, 0): {((0,), 0): gr(1), ((0, 1), 0): gr(1)}}, {})
    # the brackets come from the bracket pass; there is no second route
    with pytest.raises(TypeError):
        DeformationSeries(dc, 3, 1, {})


def test_series_evaluate_pin():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=2)
    phi = ser.evaluate((0, Fraction(1, 10), 0, 0, 0))
    assert phi == {((0,), 1): gr(Fraction(1, 10)), ((0,), 2): gr(Fraction(-1, 250))}
    with pytest.raises(ValidationError):
        ser.evaluate((0, 0))


def test_series_evaluate_on_flat_directions_is_linear():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    basis = dc.cohomology(1).harmonic_basis
    pt = (Fraction(1, 3), 0, 0, Fraction(-2, 7), Fraction(1, 2))
    expected = add(
        scaled(Fraction(1, 3), basis[0]),
        scaled(Fraction(-2, 7), basis[3]),
        scaled(Fraction(1, 2), basis[4]),
    )
    assert ser.evaluate(pt) == expected.coeffs


def _ordered_pair_reference(dc, order):
    """Series coefficients and obstruction polynomials with every ordered
    pair of terms bracketed, through the public operators."""
    coh = dc.cohomology(1)
    p = coh.dimension
    by_degree = {1: [(tuple(int(i == k) for i in range(p)), h) for k, h in enumerate(coh.harmonic_basis)]}
    coeffs = dict(by_degree[1])
    for r in range(2, order + 1):
        acc = {}
        for s in range(1, r):
            for ma, fa in by_degree[s]:
                for mb, fb in by_degree[r - s]:
                    m = tuple(x + y for x, y in zip(ma, mb))
                    acc[m] = add(acc[m], schouten(dc, fa, fb)) if m in acc else schouten(dc, fa, fb)
        by_degree[r] = []
        for m in sorted(m for m, v in acc.items() if v.coeffs):
            phi = scaled(Fraction(-1, 2), dc.dbar_adjoint(dc.green(acc[m])))
            if phi.coeffs:
                coeffs[m] = phi
                by_degree[r].append((m, phi))
    conv = {}
    for ma, fa in coeffs.items():
        for mb, fb in coeffs.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if mono_degree(m) <= order + 1:
                conv[m] = add(conv[m], schouten(dc, fa, fb)) if m in conv else schouten(dc, fa, fb)
    polys = tuple(
        Poly(p, {m: inner_product(dc, v, gamma) for m, v in conv.items()})
        for gamma in (dc.cohomology(2).harmonic_basis if dc.n >= 2 else ())
    )
    return {m: f.coeffs for m, f in coeffs.items()}, polys


@pytest.mark.parametrize(
    "build, order",
    [
        (dc_h9, 6),
        (dc_h15, 6),
        (lambda: DolbeaultComplex(abelian(6), j_std6()), 3),
        (lambda: DolbeaultComplex(n10(), jst(1, 0)), 2),
        (lambda: DolbeaultComplex(n10(), jst(1, 0)), 4),
    ],
)
def test_series_and_obstructions_match_the_ordered_pair_reference(build, order):
    dc = build()
    ser = kuranishi_series(dc, order=order)
    coeffs, polys = _ordered_pair_reference(dc, order)
    assert ser.coeffs == coeffs
    assert obstructions(ser).polys == polys


def test_each_symmetric_bracket_is_computed_once(monkeypatch):
    import nilcx.brackets as brk
    import nilcx.kuranishi as kur

    calls, cores = [], []
    pair, coform = kur.bracket, brk._coform_core
    monkeypatch.setattr(kur, "bracket", lambda *args: calls.append(1) or pair(*args))
    monkeypatch.setattr(brk, "_coform_core", lambda *args: cores.append(1) or coform(*args))
    dc = dc_h15()
    ser = kuranishi_series(dc, order=6)
    in_series = len(calls)
    obstructions(ser)
    # the series pass brackets each unordered pair of degree sum <= 7 once;
    # (105, 138) when obstructions bracketed the pairs again, and (199, 265)
    # when every ordered pair was bracketed
    assert (in_series, len(calls) - in_series) == (138, 0)
    # and reads them off the coform brackets of each term, each computed
    # once, for the ells with a row in the contraction table: h15 has rows
    # for ell 0 and 1 only, so 2 per term (n = 3 per term when every ell was)
    assert {ell for ell, _ in dc.contraction_table()} == {0, 1}
    assert len(cores) == 2 * len(ser.coeffs)


def test_series_with_no_nonzero_bracket_builds_no_green_matrix():
    dc = DolbeaultComplex(abelian(6), j_std6())
    ser = kuranishi_series(dc, order=3)
    assert not any(p.coeffs for p in obstructions(ser).polys)
    assert kept(dc, "green_matrix") == {}


def test_an_empty_contraction_table_brackets_nothing(monkeypatch):
    import nilcx.brackets as brk
    import nilcx.kuranishi as kur

    calls = []
    pair, coform = kur.bracket, brk._coform_core
    monkeypatch.setattr(kur, "bracket", lambda *args: calls.append("bracket") or pair(*args))
    monkeypatch.setattr(brk, "_coform_core", lambda *args: calls.append("core") or coform(*args))
    dc = DolbeaultComplex(abelian(6), j_std6())
    ser = kuranishi_series(dc, order=3)
    obstructions(ser)
    assert dc.contraction_table() == {} and ser.params == 9
    assert calls == [] and ser.brackets == {}
    assert all(mono_degree(m) == 1 for m in ser.coeffs)


def test_one_contraction_table_per_complex():
    build = DolbeaultComplex.contraction_table.__wrapped__.__code__
    builds = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is build:
            builds.append(frame.f_locals["self"])

    dc = dc_h15()
    sys.setprofile(profile)
    try:
        ser = kuranishi_series(dc, order=4)
        residual_by_degree(dc, ser, (0, 0, Fraction(1, 10), 0, 0))
        infinitesimal_abelian_locus(dc)
    finally:
        sys.setprofile(None)
    assert builds == [dc]
    assert list(kept(dc, "contraction_table")) == [()]


def _dc_n10():
    return DolbeaultComplex(n10(), jst(1, 0))


@pytest.mark.parametrize(
    "build",
    [dc_h9, dc_h15, lambda: DolbeaultComplex(abelian(6), j_std6()), _dc_n10],
    ids=["h9", "h15", "torus3", "n10"],
)
def test_the_step_is_the_pseudo_inverse_of_dbar_1(build):
    # so the series step D = -1/2 dbar_1^+ is the old -1/2 dbar*_1 G_2
    dc = build()
    d1 = dc.dbar_matrix(1)
    assert pinv(d1) == d1.conj_transpose() * dc.green_matrix(2)


@pytest.mark.parametrize("build,order", [(dc_h15, 6), (_dc_n10, 4)], ids=["h15", "n10"])
def test_series_and_obstructions_build_no_laplacian(build, order):
    dc = build()
    ser = kuranishi_series(dc, order=order)
    assert any(mono_degree(m) >= 2 for m in ser.coeffs)
    obstructions(ser)
    assert kept(dc, "laplacian_matrix") == {} and kept(dc, "green_matrix") == {}


def test_hand_built_series_gets_the_brackets_of_its_coefficients():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    again = hand_built_series(dc, ser.params, ser.order, dict(ser.coeffs))
    assert again.brackets == ser.brackets
    assert obstructions(again) == obstructions(ser)


# --------------------------------------------------------- obstructions


def test_obstructions_h9_all_zero():
    ser = kuranishi_series(dc_h9(), order=6)
    obs = obstructions(ser)
    assert len(obs.polys) == 3
    assert all(not p.coeffs for p in obs.polys)


def test_obstructions_torus_all_zero():
    ser = kuranishi_series(dc_torus(), order=3)
    assert all(not p.coeffs for p in obstructions(ser).polys)


def test_obstructions_h15_exact_at_order_two():
    ser = kuranishi_series(dc_h15(), order=2)
    obs = obstructions(ser)
    assert obs.params == 5 and obs.order == 2
    f1, f2, f3, f4 = obs.polys
    assert not f1.coeffs
    assert f2 == Poly(
        5, {(1, 1, 0, 0, 0): gr(4), (0, 2, 0, 0, 1): gr(Fraction(2, 5))}
    )
    assert f3 == Poly(
        5, {(0, 2, 0, 0, 0): gr(4), (0, 2, 1, 0, 0): gr(Fraction(-4, 5))}
    )
    assert f4 == Poly(5, {(0, 2, 1, 0, 0): gr(Fraction(-8, 5))})


def test_obstructions_vanish_at_zero_and_start_quadratic():
    for ser in (
        kuranishi_series(dc_h15(), order=3),
        kuranishi_series(dc_h9(), order=3),
    ):
        for p in obstructions(ser).polys:
            assert not p.evaluate((0,) * ser.params)
            if p.coeffs:
                assert p.min_degree() >= 2


def test_obstructions_vanish_exactly_on_flat_directions():
    ser = kuranishi_series(dc_h15(), order=4)
    obs = obstructions(ser)
    flat_points = [
        (Fraction(1, 5), 0, 0, Fraction(1, 7), Fraction(-1, 3)),
        (1, 0, 0, 0, 0),
        (0, 0, 0, Fraction(2, 9), 0),
    ]
    for pt in flat_points:
        assert vanishes_at(obs, pt)
    assert not vanishes_at(obs, (0, Fraction(1, 10), 0, 0, 0))
    assert not vanishes_at(obs, (1, 1, 0, 0, 0))


# ---------------------------------------------------- structure residual


def test_mc_residual_h9_zero_everywhere():
    dc = dc_h9()
    ser = kuranishi_series(dc, order=6)
    rng = random.Random(23)
    for _ in range(5):
        pt = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(3))
        assert not mc_residual(dc, ser, pt).coeffs


def test_mc_residual_pin_off_the_flat_locus():
    dc = dc_h15()
    pt = (0, Fraction(1, 10), 0, 0, 0)
    # order 2 keeps only the quadratic bracket terms
    ser = kuranishi_series(dc, order=2)
    assert mc_residual(dc, ser, pt) == dc.form(
        2,
        {
            ((0, 1), 0): gr(Fraction(-1, 125)),
            ((0, 2), 1): gr(Fraction(2, 125)),
        },
    )
    # at order 6 the cubic convolution term enters as well
    ser6 = kuranishi_series(dc, order=6)
    assert mc_residual(dc, ser6, pt) == dc.form(
        2,
        {
            ((0, 1), 0): gr(Fraction(-1, 125)),
            ((0, 2), 1): gr(Fraction(2, 125)),
            ((0, 2), 2): gr(Fraction(-1, 1250)),
        },
    )


def _residual_reference(dc, ser, pt, cap):
    """sum_m t^m dbar phi_m + 1/2 sum_{|m| <= cap} t^m {phi_a, phi_b}, pair by pair."""
    pt = tuple(gr(x) for x in pt)
    forms = {m: dc.form(1, f) for m, f in ser.coeffs.items()}
    acc = [scaled(mono_eval(m, pt), dbar(dc, f)) for m, f in forms.items()]
    for ma, fa in forms.items():
        for mb, fb in forms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if mono_degree(m) <= cap:
                acc.append(scaled(mono_eval(m, pt) * gr(Fraction(1, 2)), schouten(dc, fa, fb)))
    return add(dc.form(2, {}), *acc)


def test_residual_by_degree_splits_the_untruncated_residual():
    rng = random.Random(20261022)
    for dc, order in ((dc_h15(), 3), (dc_h9(), 2), (dc_torus(), 2)):
        ser = kuranishi_series(dc, order=order)
        for _ in range(4):
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 9)) for _ in range(ser.params))
            parts = residual_by_degree(dc, ser, pt)
            assert list(parts) == sorted(parts)
            assert all(parts.values())
            total = add(dc.form(2, {}), *(dc.form(2, v) for v in parts.values()))
            phi = dc.form(1, ser.evaluate(pt))
            # the whole residual costs one bracket of the evaluated series
            assert total == add(dbar(dc, phi), scaled(Fraction(1, 2), schouten(dc, phi, phi)))
            assert total == _residual_reference(dc, ser, pt, 2 * order)
            assert mc_residual(dc, ser, pt) == _residual_reference(dc, ser, pt, order)
            # degree d scales as lambda^d under t -> lambda t
            doubled = residual_by_degree(dc, ser, tuple(2 * x for x in pt))
            assert doubled == {d: scaled(2**d, dc.form(2, v)).coeffs for d, v in parts.items()}


def test_residual_by_degree_names_the_truncation_of_the_n10_series():
    dc = DolbeaultComplex(n10(), jst(1, 0))
    ser = kuranishi_series(dc, order=2)
    pt = tuple(Fraction(1, 10) if i in (1, 10) else 0 for i in range(14))
    assert vanishes_at(obstructions(ser), pt)
    assert not mc_residual(dc, ser, pt).coeffs
    parts = residual_by_degree(dc, ser, pt)
    assert min(parts) == 3
    assert chain_text(parts[3]) == "(-1/500+1/500i)*wb3^wb4 ox X2"


def test_residual_by_degree_vanishes_where_the_series_ends():
    dc15, dc9 = dc_h15(), dc_h9()
    for order in (2, 6):
        ser = kuranishi_series(dc15, order=order)
        for pt in ((0, 0, Fraction(1, 10), 0, 0), (Fraction(1, 10), 0, Fraction(1, 10), 0, 0)):
            assert residual_by_degree(dc15, ser, pt) == {}
        ser9 = kuranishi_series(dc9, order=order)
        for pt in ((Fraction(1, 10), 0, 0), (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2))):
            assert residual_by_degree(dc9, ser9, pt) == {}
    # at order 1 the t1*t3 coefficient of h15 is missing
    ser1 = kuranishi_series(dc15, order=1)
    parts = residual_by_degree(dc15, ser1, (Fraction(1, 10), 0, Fraction(1, 10), 0, 0))
    assert list(parts) == [2]


def _torus_dc(n):
    entry = get("torus", n=n)
    return DolbeaultComplex(entry.algebra, entry.structures[0][1])


@pytest.mark.parametrize(
    "build, order",
    [(dc_h9, 3), (dc_h15, 4), (lambda: _dc_n10(), 3)]
    + [(lambda n=n: _torus_dc(n), 3) for n in (1, 2, 3)],
    ids=["h9", "h15", "n10", "torus1", "torus2", "torus3"],
)
def test_chains_match_the_form_route(build, order):
    # the coefficient dicts, Phi(t) and the residual by degree, against the
    # same values built as VectorForms through green, dbar and schouten
    dc = build()
    ser = kuranishi_series(dc, order=order)
    assert ser.coeffs == _ordered_pair_reference(dc, order)[0]
    rng = random.Random(f"chains:{dc.algebra.name}:{order}")
    for _ in range(3):
        pt = tuple(gr(Fraction(rng.randint(-3, 3), rng.randint(1, 9))) for _ in range(ser.params))
        parts: dict = {}
        for m, f in ser.coeffs.items():
            parts.setdefault(mono_degree(m), []).append(scaled(mono_eval(m, pt), dc.form(1, f)))
        phis = {s: add(*fs) for s, fs in parts.items()}
        assert ser.evaluate(pt) == add(*phis.values()).coeffs
        want: dict = {}
        for s, fs in phis.items():
            want.setdefault(s, []).append(dbar(dc, fs))
            for u, fu in phis.items():
                want.setdefault(s + u, []).append(scaled(Fraction(1, 2), schouten(dc, fs, fu)))
        want = {d: add(*terms).coeffs for d, terms in sorted(want.items())}
        assert residual_by_degree(dc, ser, pt) == {d: v for d, v in want.items() if v}


def test_residual_by_degree_is_empty_without_degree_two_chains():
    # n = 1 has neither dbar_1 nor a degree-2 chain
    dc = _torus_dc(1)
    ser = kuranishi_series(dc, order=3)
    assert residual_by_degree(dc, ser, (Fraction(1, 2),)) == {}


def test_mc_residual_zero_on_flat_locus():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    for pt in [
        (Fraction(1, 7), 0, 0, Fraction(1, 3), Fraction(-1, 2)),
        (Fraction(-2, 3), 0, 0, 0, Fraction(5, 4)),
        (0, 0, 0, 0, 0),
    ]:
        assert not mc_residual(dc, ser, pt).coeffs


def test_mc_residual_harmonic_part_matches_obstruction_values():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=3)
    obs = obstructions(ser)
    gammas = dc.cohomology(2).harmonic_basis
    for pt in [
        (0, Fraction(1, 10), 0, 0, 0),
        (Fraction(1, 4), Fraction(-1, 6), Fraction(1, 5), 0, Fraction(1, 2)),
    ]:
        r = mc_residual(dc, ser, pt)
        for p, gamma in zip(obs.polys, gammas):
            # the residual stops at the series order, so compare against
            # the obstruction polynomial truncated to the same degree
            low = {m: c for m, c in p.coeffs.items() if mono_degree(m) <= ser.order}
            want = Poly(p.nvars, low).evaluate(pt) * gr(Fraction(1, 2))
            assert inner_product(dc, r, gamma) == want


def test_mc_residual_rejects_foreign_series():
    dc = dc_h15()
    other = dc_h15()
    ser = kuranishi_series(other, order=2)
    with pytest.raises(ValidationError):
        mc_residual(dc, ser, (0, 0, 0, 0, 0))


# ------------------------------------------------------- new structures


def test_deform_at_zero_reproduces_base_exactly():
    for dc in (dc_h9(), dc_h15()):
        ser = kuranishi_series(dc, order=2)
        d = deform_structure(dc, ser, (0,) * ser.params)
        assert d.j_new.matrix == dc.j.matrix


def test_deform_h9_point_stays_abelian():
    dc = dc_h9()
    ser = kuranishi_series(dc, order=6)
    d = deform_structure(dc, ser, (Fraction(1, 10), 0, 0))
    rep = classify_deformation(dc.algebra, d)
    assert rep.integrable and rep.abelian and rep.nilpotent


def test_deform_h15_flat_direction_integrable_not_abelian():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    d = deform_structure(dc, ser, (0, 0, Fraction(1, 10), 0, 0))
    rep = classify_deformation(dc.algebra, d)
    assert rep.integrable
    assert not rep.abelian
    assert rep.nilpotent


def test_deform_h15_obstructed_direction_not_integrable():
    dc = dc_h15()
    ser = kuranishi_series(dc, order=4)
    d = deform_structure(dc, ser, (0, Fraction(1, 10), 0, 0, 0))
    rep = classify_deformation(dc.algebra, d)
    assert not rep.integrable
    assert not rep.abelian


def test_deform_degenerate_parameter_raises():
    dc = dc_h9()
    ser = kuranishi_series(dc, order=2)
    with pytest.raises(PreconditionError, match="parameter too large") as info:
        deform_structure(dc, ser, (1, 0, 0))
    assert str(info.value).endswith("degenerate at t = (1, 0, 0)")


def _j_or_refusal(route, dc, series, pt):
    try:
        return route(dc, series, pt)
    except PreconditionError as exc:
        return str(exc)


def test_deformed_j_is_the_eigenbasis_route_at_every_sweep_point():
    """The constraint elimination of deform_structure and the reference
    B diag(i, -i) B^-1 give the same J, or the same refusal, at every --at
    point of the golden sweep that reaches deform_structure, at each order
    the sweep deforms it."""
    points, refused = set(), set()
    for stem, texts in cli_sweep.POINTS.items():
        name, params = cli_sweep.CATALOG_FILES[stem]
        entry = get(name, **params)
        dc = DolbeaultComplex(entry.algebra, entry.structures[0][1])
        for order in sorted({1, 2, cli_sweep.ORDERS[stem]}):
            series = kuranishi_series(dc, order=order)
            for text in texts:
                try:
                    pt = tuple(Fraction(x) for x in text.split(","))
                except (ValueError, ZeroDivisionError):
                    continue
                if len(pt) != series.params:
                    continue
                got = _j_or_refusal(lambda *a: deform_structure(*a).j_new, dc, series, pt)
                assert got == _j_or_refusal(eigenbasis_deformed_j, dc, series, pt), (
                    f"{stem} --order {order} --at {text}"
                )
                points.add((stem, text))
                if isinstance(got, str):
                    refused.add((stem, text, got))
    assert len(points) == 17
    assert refused == {
        ("h9", "1,0,0", "parameter too large: deformed (0,1)-space degenerate at t = (1, 0, 0)")
    }


def test_deform_provenance():
    dc = dc_h9()
    ser = kuranishi_series(dc, order=2)
    d = deform_structure(dc, ser, (Fraction(1, 8), 0, 0))
    assert d.algebra is dc.algebra
    assert d.t_point == (gr(Fraction(1, 8)), gr(0), gr(0))


def test_deform_rejects_foreign_series():
    dc = dc_h9()
    ser = kuranishi_series(dc_h15(), order=2)
    with pytest.raises(ValidationError):
        deform_structure(dc, ser, (0, 0, 0, 0, 0))


def test_classify_hand_fed_structure():
    algebra = n10()
    j = jst(1, Fraction(1, 2))
    d = DeformedStructure(t_point=(), j_new=j, algebra=algebra)
    rep = classify_deformation(algebra, d)
    assert rep.integrable
    assert not rep.abelian
    assert rep.nilpotent


def test_classify_hand_fed_abelian_member():
    algebra = n10()
    d = DeformedStructure(t_point=(), j_new=jst(1, 0), algebra=algebra)
    rep = classify_deformation(algebra, d)
    assert rep.integrable and rep.abelian and rep.nilpotent


# ------------------------------------------------------------ the locus


def unit_row(n, i):
    return tuple(gr(1 if j == i else 0) for j in range(n))


def test_locus_h9_full():
    assert infinitesimal_abelian_locus(dc_h9()) == [
        unit_row(3, 0),
        unit_row(3, 1),
        unit_row(3, 2),
    ]


def test_locus_h15_flat_coordinates():
    assert infinitesimal_abelian_locus(dc_h15()) == [
        unit_row(5, 0),
        unit_row(5, 3),
        unit_row(5, 4),
    ]


def test_locus_torus_full():
    loc = infinitesimal_abelian_locus(dc_torus())
    assert loc == [unit_row(4, i) for i in range(4)]


def test_locus_members_are_coform_flat():
    dc = dc_h15()
    basis = dc.cohomology(1).harmonic_basis
    for vec in infinitesimal_abelian_locus(dc):
        mu = add(*(scaled(c, h) for c, h in zip(vec, basis)))
        for ell in range(dc.n):
            assert not coform_bracket(dc, mu, ell).coeffs
    assert coform_bracket(dc, basis[1], 0).coeffs


def test_api_error_messages():
    dc = DolbeaultComplex(h9(), j_std6())
    series = kuranishi_series(dc, order=2)

    def series_of(order, coeffs):
        return lambda: DeformationSeries(dc, 3, order, coeffs, {})

    assert error_of(series_of(0, {})) == (ValidationError, "order must be at least 1")
    assert error_of(series_of(2, {(1, 0): {}})) == (
        ValidationError, "monomial arity does not match parameter count"
    )
    assert error_of(series_of(2, {(3, 0, 0): {}})) == (
        ValidationError, "coefficient degree outside series order"
    )
    assert error_of(series_of(2, {(1, 0, 0): {((0, 1), 0): gr(1)}})) == (
        ValidationError, "series coefficients must be degree-1 chains"
    )
    assert error_of(lambda: kuranishi_series(dc, order=0)) == (
        PreconditionError, "order must be at least 1"
    )
    twin = DolbeaultComplex(h9(), j_std6())
    assert error_of(lambda: deform_structure(twin, series, (0, 0, 0))) == (
        ValidationError, "series does not belong to this complex"
    )
