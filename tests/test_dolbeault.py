"""dbar complex: differentials, metric, Laplacian, Green's operator,
harmonic spaces.

Expected values were derived by hand before the module existed, from the
complexified brackets pinned in test_cxs. For h9's adapted frame
(X1 = e5 - i e6, X2 = e3 - i e4, X3 = e1 - i e2):

    dbar X1 = 0
    dbar X2 = i wb3 (x) X1
    dbar X3 = -i wb2 (x) X1 - i wb3 (x) X2

and for h15 (same ordering): dbar X3 = -2 wb2 (x) X1 - wb3 (x) X2 with
dbar X1 = dbar X2 = 0. Harmonic spaces were computed from those matrices
by hand row reduction; the tests compare spans, not basis choices.
"""

import random
from fractions import Fraction

import pytest
from conftest import abelian, error_of, filiform4, h9, h15, jst, n10, pair_j, j_std6
from reference import (
    add,
    basis_vector_form,
    check_harmonic_is_laplacian_kernel,
    dbar,
    dbar_vector,
    harmonic_projection,
    hdot,
    inner_product,
    kept,
    laplacian,
    off_harmonic_projector,
    parts,
    scaled,
    solve_in_image,
)

from nilcx.catalog import get
from nilcx.dolbeault import DolbeaultComplex, chain_text
from nilcx.errors import PreconditionError, ValidationError
from nilcx.linalg import Matrix, rank, row_space_basis
from nilcx.scalars import gr

I = gr(0, 1)


def dc_h9():
    return DolbeaultComplex(h9(), j_std6())


def dc_h15():
    return DolbeaultComplex(h15(), j_std6())


def dc_torus():
    return DolbeaultComplex(abelian(4), pair_j(4, [(0, 1), (2, 3)]))


def rand_form(dc, k, rng):
    coeffs = {}
    for key in dc.chain_basis(k):
        coeffs[key] = gr(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
    return dc.form(k, coeffs)


def span_of(dc, forms):
    return row_space_basis([dc._to_vec(f) for f in forms])


# ------------------------------------------------------------- VectorForm


def test_vector_form_drops_zero_coefficients():
    dc = dc_h9()
    f = dc.form(1, {((0,), 0): 0, ((1,), 2): 5})
    assert f.coeffs == {((1,), 2): gr(5)}


def test_vector_form_rejects_bad_keys():
    dc = dc_h9()
    with pytest.raises(ValidationError, match="arity"):
        dc.form(1, {((0, 1), 0): 1})
    with pytest.raises(ValidationError, match="strictly increasing"):
        dc.form(2, {((1, 1), 0): 1})
    with pytest.raises(ValidationError, match="frame index"):
        dc.form(1, {((7,), 0): 1})
    with pytest.raises(ValidationError, match="vector index"):
        dc.form(1, {((0,), 3): 1})


def test_vector_form_arithmetic_round_trip():
    # the sum and multiple of the reference, on which the tests build forms
    dc = dc_h9()
    f = dc.form(1, {((0,), 1): gr(2, 1)})
    g = dc.form(1, {((0,), 1): gr(-2, -1), ((2,), 0): 1})
    assert add(f, g).coeffs == {((2,), 0): gr(1)}
    assert not add(f, scaled(-1, f)).coeffs
    assert scaled(I, f).coeffs == {((0,), 1): gr(-1, 2)}


def test_vector_form_mismatches_rejected():
    a, b = dc_h9(), dc_h15()
    with pytest.raises(ValidationError, match="degree"):
        add(a.form(1, {((0,), 0): 1}), a.form(0, {((), 0): 1}))
    with pytest.raises(ValidationError, match="frame"):
        add(a.form(1, {((0,), 0): 1}), b.form(1, {((0,), 0): 1}))


def test_vector_form_str():
    dc = dc_h9()
    f = dc.form(2, {((0, 2), 1): gr(0, 1)})
    assert str(f) == "(i)*wb1^wb3 ox X2"
    assert str(dc.form(0, {((), 2): 2})) == "(2)*X3"
    assert str(dc.form(1, {})) == "0"


@pytest.mark.parametrize(
    "build",
    [dc_h9, dc_h15, lambda: DolbeaultComplex(n10(), jst(1, 0))]
    + [lambda n=n: _torus(n) for n in range(1, 5)],
    ids=["h9", "h15", "n10", "torus1", "torus2", "torus3", "torus4"],
)
def test_chain_text_writes_what_a_harmonic_form_prints(build):
    dc = build()
    for k in range(dc.n + 1):
        for h in dc.cohomology(k).harmonic_basis:
            # the terms in chain-basis order, written out here
            terms = [
                f"({h.coeffs[anti, a]})*" + "".join(f"wb{i + 1}^" for i in anti)[:-1]
                + (" ox " if anti else "") + f"X{a + 1}"
                for anti, a in dc.chain_basis(k)
                if (anti, a) in h.coeffs
            ]
            assert chain_text(h.coeffs) == str(h) == " + ".join(terms)


# ------------------------------------------------------------ constructor


def test_complex_requires_abelian_j():
    with pytest.raises(PreconditionError, match="abelian"):
        DolbeaultComplex(filiform4(), pair_j(4, [(0, 1), (2, 3)]))
    with pytest.raises(PreconditionError, match="abelian"):
        DolbeaultComplex(n10(), jst(1, Fraction(1, 2)))


def test_chain_dimensions():
    dc = dc_h9()
    assert [dc.chain_dim(k) for k in range(5)] == [3, 9, 9, 3, 0]


# ------------------------------------------------------------ differential


def test_dbar_vector_h9_pins():
    dc = dc_h9()
    x1, x2, x3 = dc.frame.vectors
    assert not dbar_vector(dc, x1).coeffs
    assert dbar_vector(dc, x2) == dc.form(1, {((2,), 0): I})
    assert dbar_vector(dc, x3) == dc.form(1, {((1,), 0): -I, ((2,), 1): -I})


def test_dbar_vector_h15_pins():
    dc = dc_h15()
    x1, x2, x3 = dc.frame.vectors
    assert not dbar_vector(dc, x1).coeffs
    assert not dbar_vector(dc, x2).coeffs
    assert dbar_vector(dc, x3) == dc.form(1, {((1,), 0): -2, ((2,), 1): -1})


def test_dbar_vector_torus_is_zero():
    dc = dc_torus()
    assert not any(dbar_vector(dc, v).coeffs for v in dc.frame.vectors)


def test_dbar_vector_rejects_antiholomorphic_input():
    dc = dc_h9()
    bar = tuple(x.conjugate() for x in dc.frame.vectors[0])
    with pytest.raises(PreconditionError, match="type"):
        dbar_vector(dc, bar)


def test_dbar_degree_zero_matches_dbar_vector():
    dc = dc_h9()
    for a in range(3):
        lifted = dbar(dc, basis_vector_form(dc.frame, (), a))
        assert lifted == dbar_vector(dc, dc.frame.vectors[a])


def test_dbar_degree_one_pins_h9():
    dc = dc_h9()
    out = dbar(dc, basis_vector_form(dc.frame, (0,), 2))
    assert out == dc.form(2, {((0, 1), 0): I, ((0, 2), 1): I})
    out = dbar(dc, basis_vector_form(dc.frame, (2,), 2))
    assert out == dc.form(2, {((1, 2), 0): -I})
    out = dbar(dc, basis_vector_form(dc.frame, (1,), 1))
    assert out == dc.form(2, {((1, 2), 0): -I})


def test_dbar_top_degree_is_zero_map():
    dc = dc_h9()
    top = basis_vector_form(dc.frame, (0, 1, 2), 1)
    assert not dbar(dc, top).coeffs
    assert dbar(dc, top).degree == 4


@pytest.mark.parametrize("build", [dc_h9, dc_h15, dc_torus])
def test_dbar_squares_to_zero(build):
    dc = build()
    for k in range(dc.n - 1):
        d_next, d_k = dc.dbar_matrix(k + 1), dc.dbar_matrix(k)
        assert d_next * d_k == Matrix.zero(d_next.nrows, d_k.ncols)


def test_dbar_squares_to_zero_on_n10_member():
    dc = DolbeaultComplex(n10(), jst(1, 0))
    for k in range(4):
        d_next, d_k = dc.dbar_matrix(k + 1), dc.dbar_matrix(k)
        assert d_next * d_k == Matrix.zero(d_next.nrows, d_k.ncols)


# ------------------------------------------------------------------ metric


def test_inner_product_orthonormal_basis():
    dc = dc_h9()
    f = basis_vector_form(dc.frame, (0,), 0)
    g = basis_vector_form(dc.frame, (1,), 0)
    assert inner_product(dc, f, f) == gr(1)
    assert inner_product(dc, f, g) == gr(0)


def test_inner_product_norms_of_two_term_combinations():
    dc9, dc15 = dc_h9(), dc_h15()
    two = dc9.form(1, {((1,), 1): 1, ((2,), 2): -1})
    assert inner_product(dc9, two, two) == gr(2)
    five = dc15.form(1, {((1,), 0): 1, ((2,), 1): -2})
    assert inner_product(dc15, five, five) == gr(5)


def test_inner_product_sesquilinear_and_hermitian():
    dc = dc_h9()
    rng = random.Random(11)
    f, g = rand_form(dc, 1, rng), rand_form(dc, 1, rng)
    assert inner_product(dc, scaled(I, f), g) == I * inner_product(dc, f, g)
    assert inner_product(dc, f, scaled(I, g)) == -I * inner_product(dc, f, g)
    assert inner_product(dc, f, g) == inner_product(dc, g, f).conjugate()
    assert inner_product(dc, f, f).is_real


def test_inner_product_mismatch_rejected():
    dc = dc_h9()
    with pytest.raises(ValidationError, match="degree"):
        inner_product(dc, dc.form(1, {}), dc.form(2, {}))


# ----------------------------------------------------------------- adjoint


def test_adjoint_pins():
    dc15 = dc_h15()
    out = dc15.dbar_adjoint(basis_vector_form(dc15.frame, (1,), 0))
    assert out == dc15.form(0, {((), 2): -2})
    closed = basis_vector_form(dc15.frame, (0,), 1)
    assert not dc15.dbar_adjoint(closed).coeffs
    dc9 = dc_h9()
    assert dc9.dbar_adjoint(basis_vector_form(dc9.frame, (2,), 0)) == dc9.form(
        0, {((), 1): -I}
    )


def test_adjoint_requires_positive_degree():
    dc = dc_h9()
    with pytest.raises(PreconditionError, match="degree"):
        dc.dbar_adjoint(dc.form(0, {}))


def test_adjoint_of_adjoint_vanishes():
    dc = dc_h9()
    rng = random.Random(5)
    for k in (2, 3):
        f = rand_form(dc, k, rng)
        assert not dc.dbar_adjoint(dc.dbar_adjoint(f)).coeffs


def test_adjointness_on_random_pairs():
    dc = dc_h9()
    rng = random.Random(1009)
    for _ in range(100):
        k = rng.choice((1, 2, 3))
        mu, rho = rand_form(dc, k, rng), rand_form(dc, k - 1, rng)
        assert inner_product(dc, dc.dbar_adjoint(mu), rho) == inner_product(dc, 
            mu, dbar(dc, rho)
        )


# ------------------------------------------------------- Laplacian, Green


def test_laplacian_pins():
    dc9, dc15 = dc_h9(), dc_h15()
    x2 = basis_vector_form(dc9.frame, (), 1)
    x3 = basis_vector_form(dc9.frame, (), 2)
    assert laplacian(dc9, x2) == x2
    assert laplacian(dc9, x3) == scaled(2, x3)
    y3 = basis_vector_form(dc15.frame, (), 2)
    assert laplacian(dc15, y3) == scaled(5, y3)
    w = basis_vector_form(dc9.frame, (1,), 0)
    assert laplacian(dc9, w) == dc9.form(1, {((1,), 0): 1, ((2,), 1): 1})


def test_green_pins():
    dc9, dc15 = dc_h9(), dc_h15()
    x3 = basis_vector_form(dc9.frame, (), 2)
    assert dc9.green(x3) == scaled(Fraction(1, 2), x3)
    y3 = basis_vector_form(dc15.frame, (), 2)
    assert dc15.green(y3) == scaled(Fraction(1, 5), y3)
    w = basis_vector_form(dc9.frame, (1,), 0)
    assert dc9.green(w) == dc9.form(
        1, {((1,), 0): Fraction(1, 4), ((2,), 1): Fraction(1, 4)}
    )


def test_green_kills_harmonics():
    dc = dc_h9()
    for h in dc.cohomology(1).harmonic_basis:
        assert not dc.green(h).coeffs
        assert not laplacian(dc, h).coeffs


@pytest.mark.parametrize("build", [dc_h9, dc_h15])
def test_hodge_identity_and_decomposition(build):
    dc = build()
    rng = random.Random(77)
    for k in range(dc.n + 1):
        for _ in range(5):
            mu = rand_form(dc, k, rng)
            g = dc.green(mu)
            h = harmonic_projection(dc, mu)
            assert add(laplacian(dc, g), h) == mu
            p1 = dbar(dc, dc.dbar_adjoint(g)) if k >= 1 else dc.form(k, {})
            p2 = dc.dbar_adjoint(dbar(dc, g)) if k < dc.n else dc.form(k, {})
            assert add(h, p1, p2) == mu
            assert inner_product(dc, h, p1) == gr(0)
            assert inner_product(dc, h, p2) == gr(0)
            assert inner_product(dc, p1, p2) == gr(0)


def test_green_commutes_with_adjoint():
    dc = dc_h15()
    rng = random.Random(31)
    for k in (1, 2, 3):
        mu = rand_form(dc, k, rng)
        assert dc.green(dc.dbar_adjoint(mu)) == dc.dbar_adjoint(dc.green(mu))


# ------------------------------------------------------------- cohomology


def test_h9_cohomology_dimensions():
    dc = dc_h9()
    assert [dc.cohomology(k).dimension for k in range(4)] == [1, 3, 3, 1]


def test_h15_cohomology_dimensions():
    dc = dc_h15()
    assert [dc.cohomology(k).dimension for k in range(4)] == [2, 5, 4, 1]


def test_h9_degree_one_harmonic_span():
    dc = dc_h9()
    space = dc.cohomology(1)
    expected = [
        dc.form(1, {((0,), 0): 1}),
        dc.form(1, {((1,), 0): 1, ((2,), 1): -1}),
        dc.form(1, {((1,), 1): 1, ((2,), 2): -1}),
    ]
    assert span_of(dc, space.harmonic_basis) == span_of(dc, expected)


def test_h15_degree_one_harmonic_span():
    dc = dc_h15()
    space = dc.cohomology(1)
    expected = [
        dc.form(1, {((0,), 0): 1}),
        dc.form(1, {((2,), 0): 1}),
        dc.form(1, {((0,), 1): 1}),
        dc.form(1, {((1,), 1): 1}),
        dc.form(1, {((1,), 0): 1, ((2,), 1): -2}),
    ]
    assert span_of(dc, space.harmonic_basis) == span_of(dc, expected)


def test_h9_degree_two_harmonic_span():
    dc = dc_h9()
    space = dc.cohomology(2)
    expected = [
        dc.form(2, {((1, 2), 2): 1}),
        dc.form(2, {((0, 1), 1): 1, ((0, 2), 2): -1}),
        dc.form(2, {((0, 1), 0): 1, ((0, 2), 1): -1}),
    ]
    assert span_of(dc, space.harmonic_basis) == span_of(dc, expected)


def test_h15_degree_two_harmonic_span():
    dc = dc_h15()
    space = dc.cohomology(2)
    expected = [
        dc.form(2, {((0, 2), 0): 1}),
        dc.form(2, {((0, 1), 1): 1}),
        dc.form(2, {((1, 2), 2): 1}),
        dc.form(2, {((0, 1), 0): 1, ((0, 2), 1): -2}),
    ]
    assert span_of(dc, space.harmonic_basis) == span_of(dc, expected)


def test_top_cohomology_lines():
    dc9, dc15 = dc_h9(), dc_h15()
    assert span_of(dc9, dc9.cohomology(3).harmonic_basis) == span_of(
        dc9, [dc9.form(3, {((0, 1, 2), 2): 1})]
    )
    assert span_of(dc15, dc15.cohomology(3).harmonic_basis) == span_of(
        dc15, [dc15.form(3, {((0, 1, 2), 2): 1})]
    )


def test_torus_cohomology_is_whole_chain_space():
    dc = dc_torus()
    for k in range(3):
        space = dc.cohomology(k)
        assert space.dimension == dc.chain_dim(k)
        assert space.gram == Matrix.identity(dc.chain_dim(k))


def test_gram_matrices_diagonal_positive():
    for build in (dc_h9, dc_h15, dc_torus):
        dc = build()
        for k in range(dc.n + 1):
            space = dc.cohomology(k)
            g = space.gram
            # the Gram built over supports is the dense Hermitian Gram
            vecs = [dc._to_vec(h) for h in space.harmonic_basis]
            assert g == Matrix([[hdot(u, w) for w in vecs] for u in vecs])
            for i in range(g.nrows):
                for j in range(g.ncols):
                    if i == j:
                        assert g[i, j].is_real and parts(g[i, j])[0] > 0
                    else:
                        assert g[i, j] == gr(0)


def test_harmonics_are_closed_and_coclosed():
    for build in (dc_h9, dc_h15):
        dc = build()
        for k in range(dc.n + 1):
            for h in dc.cohomology(k).harmonic_basis:
                if k < dc.n:
                    assert not dbar(dc, h).coeffs
                if k >= 1:
                    assert not dc.dbar_adjoint(h).coeffs


def test_dimension_bookkeeping():
    for build in (dc_h9, dc_h15, dc_torus):
        dc = build()
        for k in range(dc.n + 1):
            harm = dc.cohomology(k).dimension
            up = rank(dc.dbar_matrix(k)) if k < dc.n else 0
            down = rank(dc.dbar_matrix(k - 1)) if k >= 1 else 0
            assert dc.chain_dim(k) == harm + up + down


def test_cohomology_deterministic_across_instances():
    a, b = dc_h9(), dc_h9()
    for k in range(4):
        sa, sb = a.cohomology(k), b.cohomology(k)
        assert [f.coeffs for f in sa.harmonic_basis] == [
            f.coeffs for f in sb.harmonic_basis
        ]
        assert sa.gram == sb.gram


def test_cohomology_degree_out_of_range():
    dc = dc_h9()
    with pytest.raises(PreconditionError, match="degree"):
        dc.cohomology(4)
    with pytest.raises(PreconditionError, match="degree"):
        dc.cohomology(-1)


def _dc_n10():
    return DolbeaultComplex(n10(), jst(1, 0))


def _torus(n):
    entry = get("torus", n=n)
    return DolbeaultComplex(entry.algebra, entry.structures[0][1])


@pytest.mark.parametrize(
    "build",
    [dc_h9, dc_h15, _dc_n10] + [lambda n=n: _torus(n) for n in range(1, 5)],
    ids=["h9", "h15", "n10", "torus1", "torus2", "torus3", "torus4"],
)
def test_harmonic_basis_is_the_laplacian_kernel(build):
    # the harmonic vectors come from the differentials alone; the Laplacian
    # is built here only to check them
    check_harmonic_is_laplacian_kernel(build())


def test_a_differential_that_squares_to_nonzero_names_its_degree():
    dc = dc_h15()
    # a dbar_0 whose image, the first three chain vectors, leaves ker dbar_1
    dc._memo[("dbar_matrix", 0)] = Matrix([row[:3] for row in Matrix.identity(9).rows])
    with pytest.raises(PreconditionError) as info:
        dc.cohomology(1)
    assert str(info.value) == (
        "dbar_1 dbar_0 != 0 in degree 1: im dbar_0 (dimension 3) is not contained "
        "in ker dbar_1 (dimension 6)"
    )


# ------------------------------------------------------ the Green matrix


@pytest.mark.parametrize(
    "build,degrees",
    [
        (dc_h9, range(4)),
        (dc_h15, range(4)),
        (lambda: DolbeaultComplex(abelian(6), j_std6()), range(4)),
        (_dc_n10, (1, 2)),
    ],
    ids=["h9", "h15", "torus3", "n10"],
)
def test_green_matrix_is_the_old_kernel_solve(build, degrees):
    dc = build()
    rng = random.Random(20261021)
    for k in degrees:
        g, lap = dc.green_matrix(k), dc.laplacian_matrix(k)
        off = off_harmonic_projector(dc, k)
        assert lap * g == off
        for h in dc.cohomology(k).harmonic_basis:
            assert not any(g.matvec(dc._to_vec(h)))
        for _ in range(2 if dc.chain_dim(k) > 30 else 4):
            v = dc._to_vec(rand_form(dc, k, rng))
            assert g.matvec(v) == solve_in_image(lap, off.matvec(v))


def test_green_matrix_is_built_once_per_degree():
    dc = dc_h15()
    rng = random.Random(5)
    g = dc.green_matrix(2)
    for _ in range(3):
        dc.green(rand_form(dc, 2, rng))
    assert dc.green_matrix(2) is g


@pytest.mark.parametrize(
    "build",
    [dc_h9, dc_h15, lambda: DolbeaultComplex(abelian(6), j_std6()), _dc_n10],
    ids=["h9", "h15", "torus3", "n10"],
)
def test_green_matrix_commutes_with_the_adjoint(build):
    dc = build()
    for k in range(1, dc.n + 1):
        adj = dc.dbar_matrix(k - 1).conj_transpose()
        assert adj * dc.green_matrix(k) == dc.green_matrix(k - 1) * adj, k


def test_green_matrix_builds_only_its_degree():
    dc = dc_h15()
    dc.green_matrix(2)
    assert list(kept(dc, "green_matrix")) == [(2,)]


def test_degree_errors_name_the_degree():
    dc = dc_h9()
    with pytest.raises(PreconditionError) as info:
        dc.dbar_matrix(3)
    assert str(info.value) == (
        "no differential at this degree: dbar_3 (differentials are dbar_0..dbar_2)"
    )
    for call in (dc.laplacian_matrix, dc.cohomology, dc.green_matrix):
        with pytest.raises(PreconditionError) as info:
            call(4)
        assert str(info.value) == "degree out of range: 4 (degrees are 0..3)"


def test_a_refused_degree_keeps_nothing():
    # the build raises before the memo stores anything, so a second call
    # is refused with the same message
    dc = dc_h9()
    for call, k, message in (
        (dc.dbar_matrix, 3, "no differential at this degree: dbar_3 "
         "(differentials are dbar_0..dbar_2)"),
        (dc.cohomology, 7, "degree out of range: 7 (degrees are 0..3)"),
    ):
        for _ in range(2):
            assert error_of(lambda: call(k)) == (PreconditionError, message)
        assert dc._memo == {}


def test_api_error_messages():
    dc, other = DolbeaultComplex(h9(), j_std6()), DolbeaultComplex(h15(), j_std6())
    assert error_of(lambda: dc.form(1, {((), 0): 1})) == (
        ValidationError, "key arity does not match degree"
    )
    assert error_of(lambda: dc.form(1, {((3,), 0): 1})) == (ValidationError, "frame index out of range")
    assert error_of(lambda: dc.form(2, {((1, 0), 0): 1})) == (
        ValidationError, "indices must be strictly increasing"
    )
    assert error_of(lambda: dc.form(1, {((0,), 3): 1})) == (ValidationError, "vector index out of range")
    assert error_of(lambda: dc.dbar_matrix(3)) == (
        PreconditionError, "no differential at this degree: dbar_3 (differentials are dbar_0..dbar_2)"
    )
    assert error_of(lambda: dc.dbar_adjoint(other.form(1, {}))) == (ValidationError, "frame mismatch")
    assert error_of(lambda: dc.dbar_adjoint(dc.form(0, {}))) == (
        PreconditionError, "adjoint needs degree at least 1"
    )
    assert error_of(lambda: dc.green(other.form(1, {}))) == (ValidationError, "frame mismatch")
