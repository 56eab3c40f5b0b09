"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in the package is a :class:`GaussianRational`; there is no
floating point anywhere, so rank decisions and zero tests are exact.

An exact scalar is a ``GaussianRational``, an ``int``, a ``Fraction`` or
rational text: ``"3"``, ``"-1/9"``, or any text ``Fraction`` reads, so
``"0.5"`` is one half. :func:`scalar` is the one way an outside value
becomes a ``GaussianRational``; every constructor in the package reads its
coefficients with it. Anything else raises ``TypeError``. Floats and
``Decimal`` values are refused, not stored as the binary fraction they
hold: ``0.1`` is an error, while ``"0.1"`` and ``Fraction(1, 10)`` are
one tenth.
"""

from __future__ import annotations

import sys
from math import gcd

from .errors import Frozen


class GaussianRational(Frozen):
    """A complex number ``re + im*i``, each part an exact scalar read by :func:`scalar`.

    Held as one integer triple ``(a, b, d)`` meaning ``(a + b*i) / d``,
    canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have
    equal triples. Each operation is integer arithmetic plus at most one
    ``math.gcd``. Immutable and hashable; a real value equals and hashes
    like the ``int`` or ``Fraction`` of the same value. Arithmetic accepts
    plain ``int`` and ``Fraction`` operands and coerces them to real
    Gaussian rationals.
    Sums with a zero operand return the other operand unchanged, since
    most coefficients in the package's sparse matrices are zero.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction | str = 0, im: int | Fraction | str = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            z = scalar(re) + I * scalar(im)
            a, b, d = z._a, z._b, z._d
        self._set(_a=a, _b=b, _d=d)

    def conjugate(self) -> "GaussianRational":
        if not self._b:
            return self
        return _new(self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            # gcd(a, d) = 1 already
            return _new(d, 0, a) if a > 0 else _new(-d, 0, -a)
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduced(d * a, -d * b, a * a + b * b)

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        c, e = other._a, other._b
        if not c and not e:
            return self
        a, b = self._a, self._b
        if not a and not b:
            return other
        d, f = self._d, other._d
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        c, e = other._a, other._b
        if not c and not e:
            return self
        a, b = self._a, self._b
        d, f = self._d, other._d
        if not a and not b:
            return _new(-c, -e, f)
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        o = coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if b:
            if e:
                return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)
            return _reduced(a * c, b * c, self._d * other._d)
        if e:
            return _reduced(a * c, a * e, self._d * other._d)
        return _reduced(a * c, 0, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal to a real int or Fraction, so hash like one
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(_fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            # a real value's a/d is already in lowest terms
            return str(a) if d == 1 else f"{a}/{d}"
        if b == d:
            ims = "i"
        elif b == -d:
            ims = "-i"
        else:
            ims = _rat_text(b, d) + "i"
        if not a:
            return ims
        return _rat_text(a, d) + ("+" if b > 0 else "") + ims

    def __repr__(self):
        return f"GaussianRational({_rat_text(self._a, self._d)}, {_rat_text(self._b, self._d)})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_object_new = object.__new__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d from a triple that is already canonical."""
    z = _object_new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b i)/d for any d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _new(a, b, d)


def _fraction(*args) -> Fraction:
    from fractions import Fraction

    return Fraction(*args)


def scalar(x) -> GaussianRational:
    """x as an exact scalar: a GaussianRational unchanged; an int, a Fraction
    or rational text as its exact value; TypeError for anything else.

    Text ``[+-]digits[/digits]`` is read with ``int``, other text by
    ``Fraction``, with its values and exceptions."""
    if type(x) is GaussianRational:
        return x
    if type(x) is str:
        num, slash, den = x.partition("/")
        den = den if slash else "1"
        digits = num[1:] if num[:1] in ("+", "-") else num
        if (digits + den).isascii() and digits.isdigit() and den.isdigit() and den.strip("0"):
            return _reduced(int(num), 0, int(den))
        x = _fraction(x)
    z = coerce(x)
    if z is None:
        raise TypeError(f"not an exact scalar: {type(x).__name__} {x!r}")
    return z


def coerce(x) -> GaussianRational | None:
    """x as a scalar when it is a GaussianRational, an int or a Fraction, else None."""
    if type(x) is int:
        return _new(x, 0, 1)
    if isinstance(x, GaussianRational):
        return x
    # no Fraction can exist before its module is loaded
    fractions = sys.modules.get("fractions")
    if isinstance(x, int) or (fractions and isinstance(x, fractions.Fraction)):
        return _new(x.numerator, 0, x.denominator)
    return None


def _rat_text(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` prints it, without building one."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def terms_text(terms) -> str:
    """``(c1)*name1 + (c2)*name2 ...`` from (name, scalar) pairs, or ``0`` when empty."""
    return " + ".join(f"({c})*{name}" for name, c in terms) or "0"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

# shorthand constructor
gr = GaussianRational
