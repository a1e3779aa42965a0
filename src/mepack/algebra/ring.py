"""The arithmetic that the exact types share, written once.

`Scalar`, `Expr` and the `OrderedPolynomial` rings each define `coerce`,
`+`, unary `-`, `*`, `inverse` and `is_zero`.  `ExactRing` builds the rest
from those: immutability, truth as "nonzero", `-` and `/`, and `**` by
square-and-multiply, where a negative exponent raises `inverse()` (which
raises ZeroDivisionError for a value with no inverse in its ring).  An
operand that `coerce` refuses gives `NotImplemented`, so Python tries the
other operand's reflected method (`Expr - WeylPolynomial` is a polynomial).
"""

from __future__ import annotations


class ExactRing:
    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return not self.is_zero()

    def _coerced(self, other):
        try:
            return self.coerce(other)
        except TypeError:
            return NotImplemented

    def __sub__(self, other):
        other = self._coerced(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __truediv__(self, other):
        other = self._coerced(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerced(other)
        return NotImplemented if other is NotImplemented else other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError(f"{type(self).__name__} exponent must be an int")
        if exponent < 0:
            return self.inverse() ** -exponent
        out, square = self.coerce(1), self
        while exponent:
            if exponent & 1:
                out = out * square
            exponent >>= 1
            if exponent:
                square = square * square
        return out
