"""Noncommutative polynomials in ladder operators with A Ad - Ad A = 1.

Normal form keeps every Ad (creation) left of every A (annihilation):
terms are (m, n) -> coefficient for Ad^m A^n.  The `to_ladder` substitution
realizes position and momentum on the packet-adapted oscillator,

    q = Q + dQ*s*(A + Ad),   p = P - i*dP*s*(A - Ad),

with s the symbol for 1/sqrt(nu) (s^2 -> 1/nu is enforced by the
expression layer).  Any hbar in incoming coefficients is rewritten as
2*dQ*dP/nu so the image algebra closes exactly.

A balanced word Ad^m A^m acts on the number basis as the falling factorial
k_(m) = k(k-1)...(k-m+1).  `diagonal_part` keeps the balanced words as the
dict {m: coefficient}, and `falling_to_powers` rewrites that sum of falling
factorials in powers of k with the signed Stirling numbers of the first
kind.  Both keep the coefficients as given: `Expr` on the symbolic ladder
image, `int` on the moment engine's centred words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict

from .expression import Expr, _accumulate
from .weyl import WeylPolynomial
from .words import OrderedPolynomial

HBAR_AS_NU = (
    Expr.number(2) * Expr.symbol("dQ") * Expr.symbol("dP") / Expr.symbol("nu")
)


class LadderPolynomial(OrderedPolynomial):
    """Map (m, n) -> coefficient for Ad^m A^n."""

    __slots__ = ()

    CONTRACTION = 1
    LETTERS = ("Ad", "A")

    # own entries, so that per-class tracing sees this class's products
    __mul__ = OrderedPolynomial.__mul__
    __rmul__ = OrderedPolynomial.__rmul__


def ladder_q() -> LadderPolynomial:
    """Position operator image: Q + dQ*s*(A + Ad)."""
    amp = Expr.symbol("dQ") * Expr.symbol("s")
    return LadderPolynomial(
        {(0, 0): Expr.symbol("Q"), (0, 1): amp, (1, 0): amp}
    )


def ladder_p() -> LadderPolynomial:
    """Momentum operator image: P - i*dP*s*(A - Ad)."""
    amp = Expr.i() * Expr.symbol("dP") * Expr.symbol("s")
    return LadderPolynomial(
        {(0, 0): Expr.symbol("P"), (0, 1): -amp, (1, 0): amp}
    )


def to_ladder(x: WeylPolynomial) -> LadderPolynomial:
    """Rewrite a Weyl polynomial on the packet-adapted ladder operators;
    the substitution is purely symbolic, as are the returned coefficients."""
    out = LadderPolynomial()
    for (a, b), coeff in x.terms():
        c = coeff.substitute({"hbar": HBAR_AS_NU})
        out = out + c * (ladder_q() ** a * ladder_p() ** b)
    return out


def diagonal_part(x: LadderPolynomial) -> Dict[int, Any]:
    """{m: c} for the balanced words c Ad^m A^m of x: the coefficients of
    the falling factorials k_(m) that x has on the number-basis diagonal."""
    return {m: c for (m, n), c in x._terms.items() if m == n}


@lru_cache(maxsize=None)
def stirling_first_signed(m: int, n: int) -> int:
    """s(m, n): k_(m) = sum_n s(m, n) k^n."""
    if m == n == 0:
        return 1
    if m == 0 or n == 0:
        return 0
    return stirling_first_signed(m - 1, n - 1) - (m - 1) * stirling_first_signed(m - 1, n)


def falling_to_powers(falling: Dict[int, Any]) -> Dict[int, Any]:
    """{n: c_n} with sum_n c_n k^n = sum_m falling[m] k_(m)."""
    out: Dict[int, Any] = {}
    for m, c in falling.items():
        for n in range(m + 1):
            s = stirling_first_signed(m, n)
            if s:
                _accumulate(out, n, c * s)
    return out
