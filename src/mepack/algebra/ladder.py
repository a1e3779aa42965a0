"""Noncommutative polynomials in ladder operators with A Ad - Ad A = 1.

Normal form keeps every Ad (creation) left of every A (annihilation):
terms are (m, n) -> coefficient for Ad^m A^n.  The `to_ladder` substitution
realizes position and momentum on the packet-adapted oscillator,

    q = Q + dQ*s*(A + Ad),   p = P - i*dP*s*(A - Ad),

with s the symbol for 1/sqrt(nu) (s^2 -> 1/nu is enforced by the
expression layer).  Any hbar in incoming coefficients is rewritten as
2*dQ*dP/nu so the image algebra closes exactly.
"""

from __future__ import annotations

from .expression import Expr
from .numberpoly import NumberPolynomial
from .weyl import WeylPolynomial
from .words import OrderedPolynomial

HBAR_AS_NU = (
    Expr.number(2) * Expr.symbol("dQ") * Expr.symbol("dP") / Expr.symbol("nu")
)


class LadderPolynomial(OrderedPolynomial):
    """Map (m, n) -> coefficient for Ad^m A^n."""

    __slots__ = ()

    CONTRACTION = Expr.number(1)
    LETTERS = ("Ad", "A")

    # own entries, so that per-class tracing sees this class's products
    __mul__ = OrderedPolynomial.__mul__
    __rmul__ = OrderedPolynomial.__rmul__

    @classmethod
    def lower(cls, exponent: int = 1) -> "LadderPolynomial":
        return cls({(0, exponent): Expr.number(1)})

    @classmethod
    def raise_(cls, exponent: int = 1) -> "LadderPolynomial":
        return cls({(exponent, 0): Expr.number(1)})


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
    lq, lp = ladder_q(), ladder_p()
    out = LadderPolynomial()
    # cache powers; typical inputs reuse many exponents
    qpow = {0: LadderPolynomial.constant(1)}
    ppow = {0: LadderPolynomial.constant(1)}
    for (a, b), coeff in x.terms():
        for e, cache, base in ((a, qpow, lq), (b, ppow, lp)):
            while e not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] * base
        c = coeff.substitute({"hbar": HBAR_AS_NU})
        out = out + c * (qpow[a] * ppow[b])
    return out


def diagonal_part(x: LadderPolynomial) -> NumberPolynomial:
    """Keep the balanced words Ad^m A^m; in the number basis these act as
    falling factorials k(k-1)...(k-m+1)."""
    return NumberPolynomial(
        {m: c for (m, n), c in x._terms.items() if m == n}
    )
