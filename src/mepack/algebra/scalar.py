"""Exact complex rational numbers.

Coefficient field for the whole symbolic layer: (a + b*i)/d held as the ints
`abd = (a, b, d)` in lowest terms (d > 0, gcd(a, b, d) = 1), so equal values
hold equal ints and arithmetic is int arithmetic plus one gcd.  No floating
point arithmetic happens here; floats entering from user input are converted
exactly (every float is a dyadic rational).  `re`/`im` read the parts as
`Fraction`s.  `-`, `/`, `**` and immutability come from `ring.ExactRing`.
"""

from __future__ import annotations

import cmath
import numbers
import sys
from fractions import Fraction
from math import gcd

from .ring import ExactRing


def _ratio(x) -> tuple:
    """(numerator, denominator > 0) of an exact rational or a float."""
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, numbers.Rational):  # int, Fraction and numpy integers
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _scalar(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    s = object.__new__(Scalar)
    object.__setattr__(s, "abd", (a // g, b // g, d // g))
    return s


def _lowest(abd) -> "Scalar":
    """`_scalar` without the gcd, for a triple already in lowest terms."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "abd", abd)
    return s


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, from the ints as CPython computes it:
    |n| / d modulo the prime P = hash_info.modulus, inf when P divides d."""
    g, P = gcd(n, d), sys.hash_info.modulus
    n, d = n // g, d // g
    h = sys.hash_info.inf if d % P == 0 else abs(n) * pow(d, -1, P) % P
    return h if n >= 0 else -2 if h == 1 else -h  # -1 is reserved, so -2


class Scalar(ExactRing):
    """Immutable exact complex number with rational parts."""

    __slots__ = ("abd",)

    def __init__(self, re=0, im=0):
        (a, d), (b, e) = _ratio(re), _ratio(im)
        a, b, d = a * e, b * d, d * e
        g = gcd(a, b, d)
        object.__setattr__(self, "abd", (a // g, b // g, d // g))

    @classmethod
    def from_ints(cls, a: int, b: int, d: int) -> "Scalar":
        """(a + b*i)/d for ints with d > 0, reduced by one gcd."""
        return _scalar(a, b, d)

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self.abd[0], self.abd[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self.abd[1], self.abd[2])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = self._coerced(other)
            if other is NotImplemented:
                return other
        (a, b, d), (c, e, f) = self.abd, other.abd
        return _scalar(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self.abd
        return _lowest((-a, -b, d))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = self._coerced(other)
            if other is NotImplemented:
                return other
        (a, b, d), (c, e, f) = self.abd, other.abd
        return _scalar(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self.abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _scalar(a * d, -b * d, n)

    def conjugate(self) -> "Scalar":
        a, b, d = self.abd
        return _lowest((a, -b, d))

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return self.abd == (0, 0, 1)

    def __bool__(self):
        return self.abd != (0, 0, 1)

    def is_real(self) -> bool:
        return self.abd[1] == 0

    def to_complex(self) -> complex:
        a, b, d = self.abd
        return complex(a / d, b / d)  # int division rounds correctly

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (float, complex)):
                if not cmath.isfinite(other):
                    return False  # an exact value is never nan or infinite
            elif not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        return self.abd == other.abd

    def __hash__(self):
        # CPython's complex hash, hash(re) + hash_info.imag * hash(im) as a
        # machine word, so an equal int, Fraction, float or complex hashes alike
        (a, b, d), width = self.abd, sys.hash_info.width
        h = (_rational_hash(a, d) + sys.hash_info.imag * _rational_hash(b, d)) % (1 << width)
        h -= (h >> (width - 1)) << width
        return -2 if h == -1 else h

    def __repr__(self):
        if self.is_real():
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"


ZERO = Scalar(0)
ONE = Scalar(1)
