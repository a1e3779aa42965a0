"""Noncommutative polynomials in q, p with q p - p q = i*hbar.

Canonical normal form keeps every q left of every p, so a polynomial is a
map (a, b) -> coefficient representing q^a p^b.  Products reduce by the
swap rule p q -> q p - i*hbar (see `words.OrderedPolynomial`).
"""

from __future__ import annotations

from fractions import Fraction

from .expression import Expr
from .phase import PhasePolynomial
from .words import OrderedPolynomial, contract

_MINUS_HALF_I_HBAR = Expr.number(Fraction(-1, 2)) * Expr.i() * Expr.symbol("hbar")


class WeylPolynomial(OrderedPolynomial):
    __slots__ = ()

    CONTRACTION = Expr.number(-1) * Expr.i() * Expr.symbol("hbar")
    LETTERS = ("q", "p")

    # own entries, so that per-class tracing sees this class's products
    __mul__ = OrderedPolynomial.__mul__
    __rmul__ = OrderedPolynomial.__rmul__

    @classmethod
    def q(cls, exponent: int = 1) -> "WeylPolynomial":
        return cls({(exponent, 0): Expr.number(1)})

    @classmethod
    def p(cls, exponent: int = 1) -> "WeylPolynomial":
        return cls({(0, exponent): Expr.number(1)})

    @classmethod
    def from_symbol(cls, symbol: PhasePolynomial) -> "WeylPolynomial":
        """The operator whose Weyl symbol is `symbol`, in q-left order:
        exp(-i hbar/2 d_q d_p) maps the symbol q^a p^b to
        sum_j j! C(a,j) C(b,j) (-i hbar/2)^j q^(a-j) p^(b-j)."""
        return cls(contract(dict(symbol.terms()), _MINUS_HALF_I_HBAR))

    # -- involution and images ----------------------------------------------------------

    def adjoint(self) -> "WeylPolynomial":
        """Hermitian adjoint: reverse each word, conjugate coefficients;
        the reversed word p^b q^a is normal-ordered by `contract`."""
        conjugated = {key: c.conjugate() for key, c in self._terms.items()}
        return WeylPolynomial(contract(conjugated, self.CONTRACTION))

    def classical(self) -> PhasePolynomial:
        """Commutative image (exponents kept, coefficients untouched)."""
        return PhasePolynomial(dict(self._terms))


def commutator(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
    """X Y - Y X in canonical normal form."""
    return x * y - y * x
