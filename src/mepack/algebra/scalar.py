"""Exact complex rational numbers.

Coefficient field for the whole symbolic layer: a + b*i with a, b
arbitrary-precision rationals.  No floating point arithmetic happens here;
floats entering from user input are converted exactly (every float is a
dyadic rational).  `-`, `/`, `**` and immutability come from
`ring.ExactRing`; a real power raises the `Fraction` directly.
"""

from __future__ import annotations

import numbers
import sys
from fractions import Fraction

from .ring import ExactRing


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, numbers.Rational)):  # numbers.Rational: numpy integers
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class Scalar(ExactRing):
    """Immutable exact complex number with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        if not (self.im or other.im):  # real: skip the zero imaginary sum
            return Scalar(self.re + other.re, self.im)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if not (self.im or other.im):  # real: one product, not four
            return Scalar(self.re * other.re, self.im)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __pow__(self, exponent: int):
        if self.im == 0 and isinstance(exponent, int):  # real: raise the Fraction
            return Scalar(self.re ** exponent)
        return super().__pow__(exponent)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex, Scalar)):
            other = Scalar.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, hash(re) + hash_info.imag * hash(im) as a
        # machine word, so an equal int, Fraction, float or complex hashes alike
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        h -= (h >> (width - 1)) << width
        return -2 if h == -1 else h

    def __repr__(self):
        if self.im == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"


ZERO = Scalar(0)
ONE = Scalar(1)
