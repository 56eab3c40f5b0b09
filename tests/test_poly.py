"""Polynomial layer: exact arithmetic, truncation, deterministic display."""

from fractions import Fraction

import pytest

from nilcx.errors import ValidationError
from nilcx.poly import Poly, mono_add, mono_degree, mono_eval, mono_str
from nilcx.scalars import gr


def test_mono_helpers():
    assert mono_add((1, 0, 2), (0, 3, 1)) == (1, 3, 3)
    assert mono_degree((2, 0, 1)) == 3
    assert mono_eval((2, 1), (gr(Fraction(1, 2)), gr(3))) == gr(Fraction(3, 4))
    assert mono_eval((0, 0), (gr(5), gr(7))) == gr(1)


def test_mono_str():
    assert mono_str((0, 0)) == "1"
    assert mono_str((1, 0, 2)) == "t1*t3^2"


def test_zero_terms_dropped():
    p = Poly(2, {(1, 0): gr(0), (0, 1): gr(2)})
    assert (1, 0) not in p.coeffs
    assert p.coeffs == {(0, 1): gr(2)}


def test_arity_and_exponent_validation():
    with pytest.raises(ValidationError):
        Poly(2, {(1,): gr(1)})
    with pytest.raises(ValidationError):
        Poly(2, {(1, -1): gr(1)})
    with pytest.raises(ValidationError):
        Poly(1, {(1,): object()})


def test_evaluate_exact():
    p = Poly(2, {(2, 0): gr(4), (1, 1): gr(Fraction(2, 5))})
    val = p.evaluate((Fraction(1, 2), Fraction(5, 2)))
    assert val == gr(Fraction(3, 2))
    with pytest.raises(ValidationError, match="^wrong number of parameters: got 1, expected 2$"):
        p.evaluate((1,))


def test_degree_bounds():
    p = Poly(2, {(1, 1): gr(1), (3, 0): gr(1)})
    assert p.min_degree() == 2
    assert Poly(2, {}).min_degree() is None


def test_items_sorted_by_degree_then_exponents():
    p = Poly(2, {(0, 2): gr(1), (1, 0): gr(1), (2, 0): gr(1)})
    assert [m for m, _ in p.items()] == [(1, 0), (0, 2), (2, 0)]


def test_str_forms():
    assert str(Poly(2, {})) == "0"
    p = Poly(2, {(1, 1): gr(4), (2, 0): gr(Fraction(-2, 5))})
    assert str(p) == "(4)*t1*t2 + (-2/5)*t1^2"


def test_eq_and_hash():
    a = Poly(1, {(2,): gr(3)})
    b = Poly(1, {(2,): gr(3)})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Poly(1, {(2,): gr(4)})


def test_immutable():
    p = Poly(1, {})
    with pytest.raises(AttributeError):
        p.nvars = 2
