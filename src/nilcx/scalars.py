"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in the package is a :class:`GaussianRational`; there is no
floating point anywhere, so rank decisions and zero tests are exact.
"""

from __future__ import annotations

from fractions import Fraction

Rat = int | Fraction


class GaussianRational:
    """A complex number ``re + im*i`` with ``re``, ``im`` rational.

    Immutable and hashable. Arithmetic accepts plain ``int`` and
    ``Fraction`` operands and coerces them to real Gaussian rationals.
    Results skip products and sums with a zero operand, since most
    coefficients in the package's sparse matrices are zero.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: Rat | str = 0, im: Rat | str = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def conjugate(self) -> "GaussianRational":
        if not self.im:
            return self
        return _make(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero")
            return _make(1 / self.re, _FZERO)
        n = self.norm_sq()
        return _make(self.re / n, -self.im / n)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.re and not o.im:
            return self
        if not self.re and not self.im:
            return o
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.re and not o.im:
            return self
        if not self.re and not self.im:
            return -o
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        if (not a and not b) or (not c and not d):
            return ZERO
        if not b:
            return _make(a * c, a * d if d else _FZERO)
        if not d:
            return _make(a * c, b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        return _make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to a real int or Fraction, so hash like one
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            ims = "i"
        elif self.im == -1:
            ims = "-i"
        else:
            ims = f"{self.im}i"
        if self.re == 0:
            return ims
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{ims}"

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


_FZERO = Fraction(0)
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """A result from parts that are already normalised Fractions."""
    z = object.__new__(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(re: Rat | str = 0, im: Rat | str = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)
