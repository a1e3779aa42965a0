"""Commutative polynomials in phase-space variables q, p.

Coefficients are exact `Expr` values; the Poisson bracket lives here.
"""

from __future__ import annotations

from .expression import Expr
from .words import OrderedPolynomial


class PhasePolynomial(OrderedPolynomial):
    """Map (a, b) -> coefficient for q^a p^b; q and p commute."""

    __slots__ = ()

    CONTRACTION = None
    LETTERS = ("q", "p")

    @classmethod
    def q(cls, exponent: int = 1) -> "PhasePolynomial":
        return cls({(exponent, 0): Expr.number(1)})

    @classmethod
    def p(cls, exponent: int = 1) -> "PhasePolynomial":
        return cls({(0, exponent): Expr.number(1)})

    # -- calculus ------------------------------------------------------------------

    def diff_q(self) -> "PhasePolynomial":
        terms = {}
        for (a, b), c in self._terms.items():
            if a:
                terms[(a - 1, b)] = c * a
        return PhasePolynomial._wrap(terms)

    def diff_p(self) -> "PhasePolynomial":
        terms = {}
        for (a, b), c in self._terms.items():
            if b:
                terms[(a, b - 1)] = c * b
        return PhasePolynomial._wrap(terms)


def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """{f, g} = df/dq dg/dp - df/dp dg/dq."""
    return f.diff_q() * g.diff_p() - f.diff_p() * g.diff_q()
