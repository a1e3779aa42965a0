"""Polynomials in the occupation number k, stored on falling factorials.

The basis element of order m is k_(m) = k(k-1)...(k-m+1), the diagonal
matrix element of Ad^m A^m.  Conversions to and from the monomial basis
use Stirling numbers and are exact.  It is a `TermMap` keyed by m, with no
arithmetic.  Its constructor makes the coefficients `Expr`; `from_monomial`
and `ladder.diagonal_part` keep them as given: `Expr` on the symbolic
ladder path, `int` on the moment engine's centred words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping

from .expression import Expr, TermMap, _accumulate, sum_of_products


@lru_cache(maxsize=None)
def stirling_first_signed(m: int, n: int) -> int:
    """s(m, n): k_(m) = sum_n s(m, n) k^n."""
    if m == n == 0:
        return 1
    if m == 0 or n == 0:
        return 0
    return stirling_first_signed(m - 1, n - 1) - (m - 1) * stirling_first_signed(m - 1, n)


@lru_cache(maxsize=None)
def stirling_second(n: int, m: int) -> int:
    """S(n, m): k^n = sum_m S(n, m) k_(m)."""
    if n == m == 0:
        return 1
    if n == 0 or m == 0:
        return 0
    return m * stirling_second(n - 1, m) + stirling_second(n - 1, m - 1)


class NumberPolynomial(TermMap):
    __slots__ = ()

    @classmethod
    def from_monomial(cls, coeffs: Mapping[int, Expr]) -> "NumberPolynomial":
        falling: Dict[int, Expr] = {}
        for n, c in coeffs.items():
            for m in range(n + 1):
                s = stirling_second(n, m)
                if s:
                    _accumulate(falling, m, c * s)
        return cls._wrap(falling)

    def falling_coefficients(self) -> Dict[int, Expr]:
        return dict(self._terms)

    def monomial_coefficients(self) -> Dict[int, Expr]:
        out: Dict[int, Expr] = {}
        for m, c in self._terms.items():
            for n in range(m + 1):
                s = stirling_first_signed(m, n)
                if s:
                    _accumulate(out, n, c * s)
        return out

    def evaluate_at(self, k: int) -> complex:
        total = 0j
        for m, c in self._terms.items():
            ff = 1
            for j in range(m):
                ff *= k - j
            total += Expr.coerce(c).evaluate({}) * ff
        return total

    def as_expression(self) -> Expr:
        """Expression in the symbol k (monomial basis)."""
        return sum_of_products(
            (Expr.coerce(c), Expr.symbol("k", n))
            for n, c in self.monomial_coefficients().items()
        )

    def __repr__(self):
        from .parsing import format_expression

        return format_expression(self.as_expression())
