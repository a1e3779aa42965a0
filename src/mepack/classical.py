"""Classical maximum-entropy packets on phase space.

The state maximizing -int (dq dp / v) rho ln(rho) under prescribed first
and second moments is the product Gaussian; the Lagrange multipliers and
the partition function are in closed form, and every polynomial moment
follows either by differentiating the partition function or from the
central Gaussian moments.  Both routes are computed and checked against
each other.

The partition route differentiates Z as a (lam1, lam3) factor times a
(lam2, lam4) factor: each one-variable derivative ratio follows its own
recurrence, memoised by order, and takes the multipliers' values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .algebra.expression import Expr, sum_of_products
from .algebra.phase import PhasePolynomial
from .errors import routes_agree
from .packets import PacketMoments, exact_value
from .partition import GaussianPartition

_LAM = {name: Expr.symbol(name) for name in ("lam1", "lam2", "lam3", "lam4")}


class ClassicalMultipliers(NamedTuple):
    lam1: Expr
    lam2: Expr
    lam3: Expr
    lam4: Expr
    volume: Expr

    @classmethod
    def symbols(cls, volume=None) -> "ClassicalMultipliers":
        return cls(*_LAM.values(), _volume(volume))


def _volume(volume) -> Expr:
    """The reference volume as an `Expr`, the symbol v when unset."""
    if volume is None:
        return Expr.symbol("v")
    exact_value(volume, "reference volume", positive=True)
    return Expr.coerce(volume)


def multiplier_expressions() -> dict:
    """The closed-form multipliers in packet symbols."""
    return {
        "lam1": Expr.monomial(-1, Q=1, dQ=-2),
        "lam2": Expr.monomial(-1, P=1, dP=-2),
        "lam3": Expr.monomial(Fraction(1, 2), dQ=-2),
        "lam4": Expr.monomial(Fraction(1, 2), dP=-2),
    }


def solve_multipliers_classical(packet: PacketMoments, volume=None) -> ClassicalMultipliers:
    """lam1 = -Q/dQ^2, lam3 = 1/(2 dQ^2) and the momentum companions."""
    exprs = {k: packet.specialize(e) for k, e in multiplier_expressions().items()}
    return ClassicalMultipliers(**exprs, volume=_volume(volume))


def partition_classical(mult: ClassicalMultipliers) -> GaussianPartition:
    """(pi/v) (lam3 lam4)^(-1/2) exp(lam1^2/4lam3 + lam2^2/4lam4)."""
    return GaussianPartition.from_multipliers(
        mult.lam1, mult.lam2, mult.lam3, mult.lam4, mult.volume
    )


def density_at(packet: PacketMoments, q: float, p: float, v: float) -> float:
    """Phase-space density of the packet at (q, p), for reference volume v."""
    v = float(exact_value(v, "reference volume", positive=True))
    b = packet.bindings()
    dq, dp = b["dQ"], b["dP"]
    return (
        v
        / (2.0 * math.pi * dq * dp)
        * math.exp(
            -((q - b["Q"]) ** 2) / (2.0 * dq * dq)
            - ((p - b["P"]) ** 2) / (2.0 * dp * dp)
        )
    )


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def central_moment(exponent: int, spread: str) -> Expr:
    """< (q-Q)^n > = (n-1)!! dQ^n for even n, zero for odd; `spread` is
    "dQ", or "dP" for the momentum companion."""
    if exponent % 2:
        return Expr()
    return Expr.number(_double_factorial(exponent - 1)) * Expr.symbol(spread) ** exponent


@lru_cache(maxsize=None)
def moment_gaussian_route(a: int, b: int) -> Expr:
    """< q^a p^b > from the binomial expansion about (Q, P) and the
    central Gaussian moments."""
    products = []
    for j in range(0, a + 1, 2):  # odd central moments vanish
        for k in range(0, b + 1, 2):
            prefix = Expr.monomial(math.comb(a, j) * math.comb(b, k), Q=a - j, P=b - k)
            products.append((prefix * central_moment(j, "dQ"), central_moment(k, "dP")))
    return sum_of_products(products)


@lru_cache(maxsize=None)
def _derivative_ratio(n: int, lam: str, lam_sq: str) -> Expr:
    """f_n = (d/d lam)^n g / g for g = exp(lam^2 / (4 lam_sq)), in the
    multiplier symbols: f_0 = 1, f_(n+1) = d f_n/d lam + (lam / 2 lam_sq) f_n."""
    if not n:
        return Expr.number(1)
    f = _derivative_ratio(n - 1, lam, lam_sq)
    return f.diff(lam) + _LAM[lam] / (Expr.number(2) * _LAM[lam_sq]) * f


@lru_cache(maxsize=64)
def _partition_factor(n: int, lam: str, lam_sq: str, lam_value: Expr, lam_sq_value: Expr) -> Expr:
    """`_derivative_ratio` with the multipliers' values substituted; they
    are part of the key, so other values never read this entry."""
    return _derivative_ratio(n, lam, lam_sq).substitute({lam: lam_value, lam_sq: lam_sq_value})


def _moment_partition_route(a: int, b: int) -> Expr:
    """(-1)^(a+b) (d/d lam1)^a (d/d lam2)^b Z / Z, with the multipliers
    from `multiplier_expressions()` substituted.  Z is a (lam1, lam3)
    factor times a (lam2, lam4) factor, so the ratio is the product of one
    derivative ratio for each."""
    mult = multiplier_expressions()
    q_factor = _partition_factor(a, "lam1", "lam3", mult["lam1"], mult["lam3"])
    p_factor = _partition_factor(b, "lam2", "lam4", mult["lam2"], mult["lam4"])
    return Expr.number((-1) ** (a + b)) * q_factor * p_factor


@lru_cache(maxsize=None)
def moment_monomial_classical(a: int, b: int) -> Expr:
    """< q^a p^b > in packet symbols; both computation routes must agree."""
    return routes_agree(
        f"moment routes disagree for q^{a} p^{b}",
        moment_gaussian_route(a, b), _moment_partition_route(a, b),
    )


def moment_classical(packet: PacketMoments, monomial) -> Expr:
    """Average of a phase-space polynomial over the packet Gaussian."""
    return packet.specialize(sum_of_products(
        (coeff, moment_monomial_classical(a, b))
        for (a, b), coeff in PhasePolynomial.coerce(monomial).terms()
    ))


def entropy_classical(packet: PacketMoments, v: Optional[float] = None) -> float:
    """1 + ln(2 pi dQ dP / v); v defaults to h = 2 pi hbar."""
    b = packet.bindings()
    if v is None:
        v = 2.0 * math.pi * b["hbar"]
    v = float(exact_value(v, "reference volume", positive=True))
    return 1.0 + math.log(2.0 * math.pi * b["dQ"] * b["dP"] / v)
