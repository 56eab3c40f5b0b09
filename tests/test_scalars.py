"""Field arithmetic for exact complex rationals."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from reference import parts

from nilcx.errors import ValidationError
from nilcx.scalars import I, ONE, ZERO, GaussianRational, gr, scalar


def test_construction_coerces_ints_and_strings():
    z = GaussianRational("3/4", -2)
    assert z.re == Fraction(3, 4)
    assert parts(z) == (Fraction(3, 4), -2)
    assert scalar(z) is z and scalar(True) == 1 and scalar("2/4") == Fraction(1, 2)
    # each part is an exact scalar, and re + im*i with complex parts is still re + im*i
    assert gr(Fraction(3, 4), "0.25") == gr("3/4", "1/4")
    assert GaussianRational(z, z) == z + I * z == gr("11/4", "-5/4")


def test_field_axioms_on_random_values():
    import random

    rng = random.Random(20240817)

    def rand():
        return gr(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE


def test_division_and_powers():
    z = gr(1, 2)
    assert z / z == ONE
    assert I * I == -ONE
    assert I**2 == -ONE
    assert (z**3) == z * z * z
    assert z**0 == ONE


def test_conjugation_is_involution_and_norm_is_rational():
    z = gr("2/3", "-5/7")
    assert z.conjugate().conjugate() == z
    n = z * z.conjugate()
    assert n.is_real and n.re == Fraction(4, 9) + Fraction(25, 49)
    assert n.re >= 0


def test_zero_behaviour():
    assert not ZERO
    assert gr(0, 1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_mixed_arithmetic_with_python_numbers():
    z = gr(1, 1)
    assert 2 * z == gr(2, 2)
    assert z - 1 == I
    assert 1 - z == -I
    assert Fraction(1, 2) * z == gr("1/2", "1/2")
    assert z / 2 == gr("1/2", "1/2")
    assert 2 / gr(0, 2) == -I


def test_hash_and_equality_agree():
    assert hash(gr(2)) == hash(gr(2, 0))
    assert gr(2) == gr(2, 0)
    assert gr(1, 1) != gr(1, -1)


def test_real_values_hash_like_the_numbers_they_equal():
    # equal objects must hash equal, also across int and Fraction
    assert gr(1) == 1
    assert hash(gr(1)) == hash(1)
    assert len({gr(1), 1}) == 1
    assert {1: "x"}.get(gr(1)) == "x"
    half = Fraction(1, 2)
    assert gr(half) == half
    assert hash(gr(half)) == hash(half)
    assert {half: "y"}.get(gr("1/2")) == "y"
    assert len({gr(half), half, gr(1, 2)}) == 2


@pytest.mark.parametrize(
    "z, s",
    [
        (gr(0), "0"),
        (gr("3/4"), "3/4"),
        (gr(0, 1), "i"),
        (gr(0, -1), "-i"),
        (gr(1, 2), "1+2i"),
        (gr(1, -2), "1-2i"),
        (gr("1/2", "-1/3"), "1/2-1/3i"),
    ],
)
def test_str_formatting(z, s):
    assert str(z) == s


def test_immutability():
    z = gr(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


# ------------------------------------- the integer kernel against Fraction pairs


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _ref_inv(x):
    a, b = x
    n = a * a + b * b
    return (a / n, -b / n)


def _ref_text(re, im):
    """str() of a value as the Fraction-pair representation printed it."""
    if im == 0:
        return str(re)
    if im == 1:
        ims = "i"
    elif im == -1:
        ims = "-i"
    else:
        ims = f"{im}i"
    if re == 0:
        return ims
    sign = "+" if im > 0 else ""
    return f"{re}{sign}{ims}"


def _canonical(z):
    from math import gcd

    a, b, d = z._a, z._b, z._d
    return type(a) is int and type(b) is int and type(d) is int and d > 0 and gcd(a, b, d) == 1


def _rand_rat(rng):
    # zero, integers and shared denominators come up often, as in the package
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-5, 5))
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 9, 12, 35]))


def test_kernel_matches_fraction_pairs_on_every_operation():
    rng = random.Random(20261018)
    ops = [
        (lambda z, w: z + w, lambda x, y: (x[0] + y[0], x[1] + y[1])),
        (lambda z, w: z - w, lambda x, y: (x[0] - y[0], x[1] - y[1])),
        (lambda z, w: z * w, _ref_mul),
    ]
    for _ in range(400):
        x = (_rand_rat(rng), _rand_rat(rng))
        y = (_rand_rat(rng), _rand_rat(rng))
        z, w = gr(*x), gr(*y)
        assert _canonical(z) and parts(z) == x
        results = [(op(z, w), ref(x, y)) for op, ref in ops]
        results += [(-z, (-x[0], -x[1])), (z.conjugate(), (x[0], -x[1]))]
        results += [(z**e, x if e == 1 else _ref_mul(x, x)) for e in (1, 2)]
        results.append((z**0, (1, 0)))
        if any(y):
            results.append((z / w, _ref_mul(x, _ref_inv(y))))
            results.append((w.inverse(), _ref_inv(y)))
        for got, want in results:
            assert _canonical(got), (x, y, got)
            assert parts(got) == want, (x, y, got)
        assert z * z.conjugate() == gr(x[0] ** 2 + x[1] ** 2)
        assert (z == w) == (x == y)
        assert bool(z) == any(x)
        assert z.is_real == (x[1] == 0)


def test_kernel_mixes_with_int_and_fraction_operands():
    rng = random.Random(7)
    for _ in range(200):
        x = (_rand_rat(rng), _rand_rat(rng))
        z = gr(*x)
        for q in (rng.randint(-6, 6), _rand_rat(rng)):
            got = [z + q, q + z, z - q, q - z, z * q, q * z]
            want = [
                (x[0] + q, x[1]),
                (x[0] + q, x[1]),
                (x[0] - q, x[1]),
                (q - x[0], -x[1]),
                (x[0] * q, x[1] * q),
                (x[0] * q, x[1] * q),
            ]
            if q:
                got.append(z / q)
                want.append((x[0] / q, x[1] / q))
            if any(x):
                got.append(q / z)
                want.append(_ref_mul((Fraction(q), Fraction(0)), _ref_inv(x)))
            for g, w in zip(got, want):
                assert _canonical(g) and parts(g) == w, (x, q, g)


def test_text_is_the_fraction_pair_text():
    rng = random.Random(11)
    specials = [(0, 0), (0, 1), (0, -1), (3, 0), (-3, 0), (0, Fraction(1, 7)), (0, Fraction(-1, 7))]
    specials += [(Fraction(1, 2), 1), (Fraction(-1, 2), -1), (2, Fraction(-1, 3)), (Fraction(5, 4), Fraction(5, 4))]
    values = [(Fraction(a), Fraction(b)) for a, b in specials]
    values += [(_rand_rat(rng), _rand_rat(rng)) for _ in range(300)]
    for re, im in values:
        z = gr(re, im)
        assert str(z) == _ref_text(re, im)
        assert repr(z) == f"GaussianRational({re}, {im})"
    # results of arithmetic print the same way as the values they equal
    assert str(gr("1/6", "1/6") * gr(3, 3)) == "i"
    assert str(gr("1/2", "1/3") + gr("1/2", "-1/3")) == "1"


def test_equality_and_hash_across_int_and_fraction():
    rng = random.Random(5)
    for _ in range(200):
        q = _rand_rat(rng)
        z = gr(q)
        assert z == q and q == z and hash(z) == hash(q)
        if q.denominator == 1:
            n = int(q)
            assert z == n and hash(z) == hash(n)
        assert {q: 1}.get(z) == 1
        w = gr(q, _rand_rat(rng) or 1)
        assert w != q and w != z
        assert hash(w) == hash(gr(*parts(w)))
    # one value reached by different routes has one triple and one hash
    a = gr("2/3", "1/6") * gr(3) - gr(1, "1/2")
    assert a == gr(1) and hash(a) == hash(1) and _canonical(a)


# ---------------------------------------------- text: the int route and Fraction


@pytest.mark.parametrize("tok", ["3", "-1/9", "+2", "2/4", "0.5", "1e-3", " 7 "])
def test_text_reads_as_fraction_reads_it(tok):
    z = GaussianRational(tok)
    assert z == Fraction(tok) and z.re == Fraction(tok) and z.is_real
    assert _canonical(z)


@pytest.mark.parametrize("tok", ["1/0", "1/-7", "abc", ""])
def test_bad_text_raises_what_fraction_raises(tok):
    with pytest.raises(Exception) as want:
        Fraction(tok)
    with pytest.raises(Exception) as got:
        GaussianRational(tok)
    assert got.type is want.type
    assert str(got.value) == str(want.value)


def test_text_and_fraction_values_keep_the_eq_hash_contract():
    rng = random.Random(9)
    for _ in range(200):
        q = _rand_rat(rng)
        if q.denominator == 1:
            continue
        z = GaussianRational(str(q))
        assert z == gr(q) == q and hash(z) == hash(gr(q)) == hash(q)
        assert {q: 1}.get(z) == 1 and {z: 1}.get(q) == 1


# ------------------------------------------- one intake for every constructor


INTAKES = [
    "GaussianRational", "gr", "Matrix", "Matrix.from_columns", "Matrix.matvec", "LieAlgebra",
    "AlmostComplexStructure.from_images", "dc.form", "Poly", "deform_structure point",
    "catalog.get(s=...)",
]


@pytest.fixture(scope="module")
def intakes():
    """name -> (read, error, message): ``read(x)`` builds with the outside
    value x and returns the exact scalar it stored; a float raises ``error``
    with ``message``."""
    from nilcx.catalog import get
    from nilcx.cxs import AlmostComplexStructure
    from nilcx.dolbeault import DolbeaultComplex
    from nilcx.kuranishi import deform_structure, kuranishi_series
    from nilcx.lie import LieAlgebra
    from nilcx.linalg import Matrix
    from nilcx.poly import Poly

    entry = get("h15")
    dc = DolbeaultComplex(entry.algebra, entry.structures[0][1])
    series = kuranishi_series(dc, order=1)
    refused = (TypeError, "not an exact scalar: float 0.1")
    not_rational = (ValidationError, "coefficient is not rational")
    e1, e2 = (1, 0, 0), (0, 1, 0)
    return {
        "GaussianRational": (GaussianRational, *refused),
        "gr": (gr, *refused),
        "Matrix": (lambda x: Matrix([[x]])[0, 0], *refused),
        "Matrix.from_columns": (lambda x: Matrix.from_columns([[x]])[0, 0], *refused),
        "Matrix.matvec": (lambda x: Matrix.identity(1).matvec([x])[0], *refused),
        "LieAlgebra": (lambda x: LieAlgebra(3, {(1, 2): {3: x}}).bracket(e1, e2)[2], *refused),
        "AlmostComplexStructure.from_images": (
            lambda x: AlmostComplexStructure.from_images(2, {0: (0, x)}).matrix[1, 0],
            *refused,
        ),
        "dc.form": (lambda x: dc.form(1, {((0,), 0): x}).coeffs[((0,), 0)], *refused),
        "Poly": (lambda x: Poly(1, {(1,): x}).coeffs[(1,)], *not_rational),
        # t2 = 1 keeps the deformed (0,1)-space nondegenerate on h15
        "deform_structure point": (
            lambda x: deform_structure(dc, series, (0, x, 0, 0, 0)).t_point[1],
            *not_rational,
        ),
        "catalog.get(s=...)": (
            lambda x: get("n10", s=x, t=Fraction(1, 2)).params[0],
            ValidationError,
            "s must be rational",
        ),
    }


@pytest.mark.parametrize("name", INTAKES)
def test_every_intake_refuses_a_float_and_reads_exact_values(intakes, name):
    assert sorted(intakes) == sorted(INTAKES)
    read, error, message = intakes[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(0.1)
    tenths = [read(x) for x in (Fraction(1, 10), "1/10", "0.1", gr("1/10"))]
    assert all(type(z) is GaussianRational and z == Fraction(1, 10) for z in tenths)
    one = read(1)
    assert type(one) is GaussianRational and one == 1


@pytest.mark.parametrize("x", [0.5, 0.1, float("nan"), Decimal("0.1"), 1j, None, [1]])
def test_scalar_refuses_what_is_not_exact(x):
    with pytest.raises(TypeError, match=f"^not an exact scalar: {type(x).__name__} "):
        scalar(x)
    with pytest.raises(TypeError, match="^not an exact scalar"):
        GaussianRational(1, x)
