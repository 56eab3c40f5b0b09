"""Exact multivariate polynomials in the deformation parameters.

A monomial is an exponent tuple, one slot per parameter, and a polynomial
maps monomials to :class:`~nilcx.scalars.GaussianRational` coefficients.
Everything downstream of the deformation recursion is truncated in total
degree; there is no notion of convergence.
"""

from __future__ import annotations

from .errors import Frozen, ValidationError
from .scalars import ZERO, GaussianRational, scalar, terms_text

Monomial = tuple[int, ...]


def coerce_scalar(x) -> GaussianRational:
    try:
        return scalar(x)
    except TypeError:
        raise ValidationError("coefficient is not rational") from None


def mono_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_eval(m: Monomial, point: tuple[GaussianRational, ...]) -> GaussianRational:
    out = GaussianRational(1)
    for e, x in zip(m, point):
        if e:
            out = out * x**e
    return out


def mono_str(m: Monomial) -> str:
    parts = []
    for k, e in enumerate(m):
        if e == 1:
            parts.append(f"t{k + 1}")
        elif e > 1:
            parts.append(f"t{k + 1}^{e}")
    return "*".join(parts) if parts else "1"


def coerce_point(point, nvars: int) -> tuple[GaussianRational, ...]:
    """Validate a parameter tuple and lift the entries to exact scalars."""
    pt = tuple(coerce_scalar(x) for x in point)
    if len(pt) != nvars:
        raise ValidationError(f"wrong number of parameters: got {len(pt)}, expected {nvars}")
    return pt


class Poly(Frozen):
    """Polynomial with Gaussian-rational coefficients, zero terms dropped."""

    __slots__ = ("nvars", "coeffs")

    nvars: int
    coeffs: dict

    def __init__(self, nvars: int, coeffs: dict):
        clean = {}
        for mono, c in coeffs.items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValidationError("monomial arity does not match parameter count")
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValidationError("exponents must be nonnegative integers")
            c = coerce_scalar(c)
            if c:
                clean[mono] = c
        self._set(nvars=nvars, coeffs=clean)

    def items(self):
        """Terms sorted by total degree, then by exponent tuple."""
        return sorted(self.coeffs.items(), key=lambda kv: (mono_degree(kv[0]), kv[0]))

    def min_degree(self) -> int | None:
        """Total degree of the lowest term, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return min(mono_degree(m) for m in self.coeffs)

    def evaluate(self, point) -> GaussianRational:
        pt = coerce_point(point, self.nvars)
        out = ZERO
        for m, c in self.coeffs.items():
            out = out + c * mono_eval(m, pt)
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, tuple(self.items())))

    def __str__(self):
        return terms_text((mono_str(m), c) for m, c in self.items())

    def __repr__(self):
        return f"Poly({self.nvars}, {{{', '.join(f'{m}: {c}' for m, c in self.items())}}})"
