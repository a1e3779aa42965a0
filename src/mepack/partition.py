"""Structured partition functions for Gaussian-exponent states.

Both normalizations used in this package have the shape

    Z = C * lam3^e3 * lam4^e4 * exp(lam1^2/(4 lam3) + lam2^2/(4 lam4)) / D

with C an exact expression, e3 = e4 in {0, -1/2}, and D = 1 (classical
phase-space integral) or D = 2 sinh(hbar sqrt(lam3 lam4)) (trace over the
number basis).  The family is closed under d/d(lam_i) in the classical
case, which is all the moment calculus needs; the quantum version is only
ever evaluated, compared, or expanded to leading order in hbar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .algebra.expression import Expr, sqrt_monomial
from .errors import DomainError

_PI = Expr.symbol("pi")
_HALF = Fraction(1, 2)


def _gaussian_exponent(lam1: Expr, lam2: Expr, lam3: Expr, lam4: Expr) -> Expr:
    return lam1 * lam1 / (Expr.number(4) * lam3) + lam2 * lam2 / (Expr.number(4) * lam4)


def check_positive(expr: Expr, name: str):
    if expr.is_constant():
        value = expr.constant_value()
        if not value.is_real() or value.re <= 0:
            raise DomainError(f"{name} must be positive, got {value.to_complex()}")


class GaussianPartition(NamedTuple):
    """C * lam3^e3 * lam4^e4 * exp(E)."""

    coeff: Expr
    e3: Fraction
    e4: Fraction
    exponent: Expr

    @classmethod
    def from_multipliers(cls, lam1, lam2, lam3, lam4, volume) -> "GaussianPartition":
        lam1, lam2 = Expr.coerce(lam1), Expr.coerce(lam2)
        lam3, lam4 = Expr.coerce(lam3), Expr.coerce(lam4)
        check_positive(lam3, "lam3")
        check_positive(lam4, "lam4")
        coeff = _PI / Expr.coerce(volume)
        exponent = _gaussian_exponent(lam1, lam2, lam3, lam4)
        product = lam3 * lam4
        if product == Expr.symbol("lam3") * Expr.symbol("lam4"):
            return cls(coeff, -_HALF, -_HALF, exponent)
        return cls(coeff * sqrt_monomial(product).inverse(), Fraction(0), Fraction(0), exponent)

    def diff(self, name: str) -> "GaussianPartition":
        """d/d name, valid while lam1..lam4 are still symbols."""
        coeff = self.coeff.diff(name) + self.coeff * self.exponent.diff(name)
        if name == "lam3" and self.e3:
            coeff = coeff + self.coeff * Expr.number(self.e3) / Expr.symbol("lam3")
        if name == "lam4" and self.e4:
            coeff = coeff + self.coeff * Expr.number(self.e4) / Expr.symbol("lam4")
        return GaussianPartition(coeff, self.e3, self.e4, self.exponent)

    def evaluate(self, bindings: Mapping[str, complex]) -> complex:
        value = self.coeff.evaluate(bindings) * math.exp(self.exponent.evaluate(bindings).real)
        for name, e in (("lam3", self.e3), ("lam4", self.e4)):
            if e:
                value *= complex(bindings[name]) ** float(e)
        return value


class QuantumPartition(NamedTuple):
    """exp(E) / (2 sinh(hbar sqrt(lam3 lam4))), kept in multiplier form."""

    lam1: Expr
    lam2: Expr
    lam3: Expr
    lam4: Expr

    def exponent(self) -> Expr:
        return _gaussian_exponent(self.lam1, self.lam2, self.lam3, self.lam4)

    def sinh_argument(self, bindings: Mapping[str, complex]) -> float:
        l3 = self.lam3.evaluate(bindings).real
        l4 = self.lam4.evaluate(bindings).real
        if l3 <= 0 or l4 <= 0:
            raise DomainError("sinh argument needs positive lam3, lam4")
        return float(bindings["hbar"]) * math.sqrt(l3 * l4)

    def evaluate(self, bindings: Mapping[str, complex]) -> float:
        return math.exp(self.log_evaluate(bindings))

    def log_evaluate(self, bindings: Mapping[str, complex]) -> float:
        x = self.sinh_argument(bindings)
        return self.exponent().evaluate(bindings).real - math.log(2.0 * math.sinh(x))

    def leading_small_hbar(self) -> GaussianPartition:
        """Leading term when hbar*sqrt(lam3 lam4) is small: the denominator
        becomes 2 hbar sqrt(lam3 lam4), i.e. the classical form with v = h."""
        h = Expr.number(2) * _PI * Expr.symbol("hbar")
        return GaussianPartition.from_multipliers(self.lam1, self.lam2, self.lam3, self.lam4, h)
