"""Field arithmetic for exact complex rationals."""

from fractions import Fraction

import pytest

from nilcx.scalars import I, ONE, ZERO, GaussianRational, gr


def test_construction_coerces_ints_and_strings():
    z = GaussianRational("3/4", -2)
    assert z.re == Fraction(3, 4)
    assert z.im == -2


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
    n = z.norm_sq()
    assert isinstance(n, Fraction)
    assert n == Fraction(4, 9) + Fraction(25, 49)
    assert n >= 0
    assert z * z.conjugate() == gr(n)


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
