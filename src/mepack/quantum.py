"""Quantum maximum-entropy packets.

The entropy-maximizing density operator for prescribed (Q, P, dQ, dP) is
diagonal on a packet-adapted oscillator basis with geometric weights
R_k = 2 (nu-1)^k / (nu+1)^(k+1).  It is a thermal Gaussian state, so its
Wigner function is the classical packet Gaussian with the same dQ, dP.

Moments of operator polynomials are computed by the Wigner route: the
Weyl symbol of q^a p^b is sum_j j! C(a,j) C(b,j) (i hbar/2)^j q^(a-j) p^(b-j)
(Wilcox 1967; `words.contract` with c = i hbar/2), averaged with the
classical Gaussian moments, and hbar/2 = dQ dP / nu.

Every moment is checked against the diagonal representation in a centred
form: q = Q + dQ s X and p = P + dP s Y with X = A + Ad, Y = -i (A - Ad)
and s = 1/sqrt(nu); the balanced words of X^j Y^k are summed against the
weights by two independent routes that must agree:

  (a) the operator formula  <k^n> = (2/(nu+1)) D^n (nu+1)/2  with
      D = ((nu^2-1)/2) d/dnu, applied in the monomial basis;
  (b) the closed falling-factorial sums  <Ad^m A^m> = m! ((nu-1)/2)^m.

The check computes over ints and rationals.  The words are built as
X^j (A - Ad)^k with int coefficients, by the same closed-form ladder
product, since X^j Y^k = (-i)^k X^j (A - Ad)^k.  Each weight sum of order m
is an int table of coefficients in nu scaled by 2^m (m! (nu-1)^m for (b),
the recurrence of (a) for <k^n>), and the diagonal part of each word is
summed against both tables in int arithmetic.  The centred route then
writes every term of <q^a p^b>, C(a,j) C(b,k) (-i)^k times a table entry,
once into one term dict, under a monomial of its own.

`ladder_monomial_expectation` keeps the same diagonal route on the full
symbolic ladder image of q^a p^b, as an uncached reference for tests; it
sums its `Expr` coefficients against the same tables.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Any, Dict, NamedTuple, Tuple, Union

from .algebra.expression import Expr, sum_of_products
from .algebra.ladder import HBAR_AS_NU, LadderPolynomial, diagonal_part, to_ladder
from .algebra.numberpoly import NumberPolynomial
from .algebra.scalar import Scalar
from .algebra.weyl import WeylPolynomial
from .algebra.words import contract
from .classical import moment_gaussian_route, multiplier_expressions
from .errors import DomainError, routes_agree
from .packets import PacketMoments, exact_value
from .partition import QuantumPartition

_NU = Expr.symbol("nu")
_HALF = Expr.number(Fraction(1, 2))
_HALF_I_HBAR = _HALF * Expr.i() * HBAR_AS_NU

ENTROPY_TAIL_TOL = 1e-16


class QuantumMultipliers(NamedTuple):
    """Classical multipliers times the common factor (nu/2) ln((nu+1)/(nu-1))."""

    lam1: Expr
    lam2: Expr
    lam3: Expr
    lam4: Expr


def log_ratio_factor() -> Expr:
    """(nu/2) * ln((nu+1)/(nu-1)), with the log kept as the symbol Lnu."""
    return _HALF * _NU * Expr.symbol("Lnu")


def solve_multipliers_quantum(packet: PacketMoments) -> QuantumMultipliers:
    """Closed-form multipliers; defined only for nu > 1.

    The log stays the symbol Lnu for numeric packets too: it has no exact
    value, and `packet.bindings()` carries its float.
    """
    packet.require_quantum(strict=True)
    factor = log_ratio_factor()
    exprs = {k: packet.specialize(e * factor) for k, e in multiplier_expressions().items()}
    return QuantumMultipliers(exprs["lam1"], exprs["lam2"], exprs["lam3"], exprs["lam4"])


def partition_quantum(mult: QuantumMultipliers) -> QuantumPartition:
    """exp(lam1^2/4lam3 + lam2^2/4lam4) / (2 sinh(hbar sqrt(lam3 lam4)))."""
    exact_value(mult.lam3, "lam3", positive=True)
    exact_value(mult.lam4, "lam4", positive=True)
    return QuantumPartition(mult.lam1, mult.lam2, mult.lam3, mult.lam4)


def _exact_nu(nu):
    """nu after the check nu >= 1, an int as a Fraction, so that the
    weights are exact for exact input and floats for float input."""
    if nu < 1:
        raise DomainError(f"fock weights need nu >= 1, got {nu}")
    return Fraction(nu) if isinstance(nu, int) else nu


def fock_weight(nu: Union[int, float, Fraction], k: int):
    """R_k = 2 (nu-1)^k / (nu+1)^(k+1); exact for exact input."""
    if k < 0:
        raise DomainError(f"weight index must be non-negative, got {k}")
    nu = _exact_nu(nu)
    return 2 * (nu - 1) ** k / (nu + 1) ** (k + 1)


def _weight_ratio(nu):
    """x = (nu-1)/(nu+1), the ratio R_(k+1)/R_k; exact for exact input."""
    nu = _exact_nu(nu)
    return (nu - 1) / (nu + 1)


def tail_weight(nu, n: int):
    """Total weight above level n, x^(n+1); exact for exact input."""
    return _weight_ratio(nu) ** (n + 1)


def tail_levels(nu, tol: float) -> int:
    """Smallest level count N whose dropped tail x^N is at most tol.

    This is ceil(log(tol) / log(x)), evaluated in floats, and at least 1.
    Raises DomainError where x is not below 1 in floats (it rounds to 1
    from nu of about 1e16, and is nan at nu = inf).
    """
    x = _weight_ratio(float(nu))
    if x == 0.0:
        return 1
    if not x < 1.0:
        raise DomainError(
            f"tail levels at nu = {nu} are beyond float range: (nu-1)/(nu+1) = {x}"
        )
    return max(1, math.ceil(math.log(tol) / math.log(x)))


# ---------------------------------------------------------------------------
# moment engine: the Wigner route, checked by the diagonal representation
# ---------------------------------------------------------------------------


# The two weight sums as int tables in nu: entry e is the coefficient of
# nu^e, and the table of order n holds 2^n times the sum.
Table = Tuple[int, ...]


@lru_cache(maxsize=None)
def _falling_weight_table(m: int) -> Table:
    """2^m <k(k-1)...(k-m+1)> over the geometric weights: m! (nu-1)^m."""
    factorial = math.factorial(m)
    return tuple((-1) ** (m - e) * factorial * math.comb(m, e) for e in range(m + 1))


@lru_cache(maxsize=None)
def _monomial_weight_table(n: int) -> Table:
    """2^n <k^n> via the derivative operator D = ((nu^2-1)/2) d/dnu: as
    <k^n> = (2/(nu+1)) D^n (nu+1)/2,
    2^(n+1) <k^(n+1)> = (nu-1) d/dnu ((nu+1) 2^n <k^n>)."""
    if not n:
        return (1,)
    p = _monomial_weight_table(n - 1) + (0,)
    # d/dnu ((nu+1) p), padded with a zero at each end, then times (nu-1)
    d = [0] + [(e + 1) * (p[e] + p[e + 1]) for e in range(n)] + [0]
    return tuple(d[e] - d[e + 1] for e in range(n + 1))


def _table_average(coefficients: Dict[int, Any], table, top: int) -> list:
    """2^top sum_n c_n table(n) / 2^n, the coefficients c_n (n <= top) of a
    number polynomial summed against a weight table: a list in nu of ints
    for the centred words, of Exprs for the symbolic reference."""
    out = [0] * (top + 1)
    for n, c in coefficients.items():
        for e, t in enumerate(table(n)):
            out[e] += c * (t << (top - n))
    return out


def _diagonal_average(number_poly: NumberPolynomial, label: str, top: int) -> list:
    """2^top times the sum of a number polynomial against the weights, by
    both routes, which must agree."""
    return routes_agree(
        f"summation routes disagree for {label}",
        _table_average(number_poly.falling_coefficients(), _falling_weight_table, top),
        _table_average(number_poly.monomial_coefficients(), _monomial_weight_table, top),
    )


def ladder_monomial_expectation(a: int, b: int) -> Expr:
    """<q^a p^b> by the full symbolic ladder image: `to_ladder`, then
    `diagonal_part`, then both summation routes.

    The reference that `weyl_monomial_expectation` is tested against;
    uncached and slow (its coefficients carry every packet symbol).
    """
    number_poly = diagonal_part(to_ladder(WeylPolynomial({(a, b): Expr.number(1)})))
    for coeff in number_poly.falling_coefficients().values():
        if "s" in coeff.symbols():
            raise AssertionError(
                f"odd power of s survived in the diagonal part of q^{a} p^{b}"
            )
    top = (a + b) // 2
    table = _diagonal_average(number_poly, f"q^{a} p^{b}", top)
    return sum_of_products(
        (Expr.coerce(coeff), Expr.monomial(Fraction(1, 1 << top), nu=e))
        for e, coeff in enumerate(table)
    )


class _IntegerLadder(LadderPolynomial):
    """Ad^m A^n over the integers: the ring of the centred words."""

    __slots__ = ()

    CONTRACTION = 1
    COEFFICIENT = staticmethod(operator.index)


_X = _IntegerLadder({(0, 1): 1, (1, 0): 1})  # A + Ad
_A_MINUS_AD = _IntegerLadder({(0, 1): 1, (1, 0): -1})  # i Y
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k as (re, im)


@lru_cache(maxsize=None)
def _centred_word(j: int, k: int) -> _IntegerLadder:
    """X^j (A - Ad)^k, grown one letter at a time; X^j Y^k is (-i)^k times it."""
    if j:
        return _X * _centred_word(j - 1, k)
    if k:
        return _centred_word(0, k - 1) * _A_MINUS_AD
    return _IntegerLadder.constant(1)


@lru_cache(maxsize=None)
def _centred_moment(j: int, k: int) -> Table:
    """2^h <X^j (A - Ad)^k> over the weights, h = (j+k)/2, as an int table
    in nu; empty for odd j + k.  <X^j Y^k> is (-i)^k times it."""
    number_poly = diagonal_part(_centred_word(j, k))
    if (j + k) % 2:
        if not number_poly.is_zero():
            raise AssertionError(f"odd word X^{j} Y^{k} has a diagonal part")
        return ()
    return tuple(_diagonal_average(number_poly, f"X^{j} Y^{k}", (j + k) // 2))


def _centred_route(a: int, b: int) -> Expr:
    """q = Q + dQ s X and p = P + dP s Y, expanded binomially:
    sum_{j,k} C(a,j) C(b,k) Q^(a-j) P^(b-k) dQ^j dP^k s^(j+k) <X^j Y^k>.
    With s^(j+k) = nu^-h, entry c_e of `_centred_moment(j, k)` puts
    C(a,j) C(b,k) (-i)^k c_e / 2^h under Q^(a-j) P^(b-k) dQ^j dP^k nu^(e-h),
    a distinct monomial for each (j, k, e), written in the symbols' rank
    order, so canonical as it is built."""
    terms = {}
    for j in range(a + 1):
        for k in range(b + 1):
            table = _centred_moment(j, k)
            if not table:
                continue
            binomials = math.comb(a, j) * math.comb(b, k)
            re, im = _MINUS_I_POWERS[k % 4]
            half = (j + k) // 2
            powers = (("Q", a - j), ("P", b - k), ("dQ", j), ("dP", k))
            head = tuple(power for power in powers if power[1])
            for e, c in enumerate(table):
                if c:
                    mono = (head + (("nu", e - half),)) if e < half else head
                    c *= binomials
                    terms[mono] = Scalar.from_ints(re * c, im * c, 1 << half)
    return Expr._wrap(terms)


def _wigner_route(a: int, b: int) -> Expr:
    """Gaussian average of the Weyl symbol of q^a p^b,
    sum_j j! C(a,j) C(b,j) (i hbar/2)^j q^(a-j) p^(b-j), with hbar/2 = dQ dP/nu."""
    symbol = contract({(a, b): Expr.number(1)}, _HALF_I_HBAR)
    return sum_of_products(
        (coeff, moment_gaussian_route(*key)) for key, coeff in symbol.items()
    )


@lru_cache(maxsize=None)
def weyl_monomial_expectation(a: int, b: int) -> Expr:
    """<q^a p^b> in packet symbols (hbar eliminated via nu).

    Computed by the Wigner route and checked against the centred
    diagonal representation; raises AssertionError if they differ.
    """
    return routes_agree(
        f"Wigner and ladder routes disagree for q^{a} p^{b}",
        _wigner_route(a, b), _centred_route(a, b),
    )


def expectation_quantum(packet: PacketMoments, x: WeylPolynomial) -> Expr:
    """Tr(rho X) in packet symbols: Q, P, dQ, dP and nu (s^2 -> 1/nu applied);
    a constant for a numeric packet."""
    packet.require_quantum()
    return packet.specialize(sum_of_products(
        (coeff.substitute({"hbar": HBAR_AS_NU}), weyl_monomial_expectation(a, b))
        for (a, b), coeff in x.terms()
    ))


def expectation_value(packet: PacketMoments, x: WeylPolynomial) -> complex:
    """Numeric expectation for a numeric packet: the exact moment at the
    packet's values (`expectation_quantum`), rounded once."""
    return expectation_quantum(packet, x).evaluate(packet.bindings())


def restore_hbar(expr: Expr) -> Expr:
    """Rewrite nu -> 2 dQ dP / hbar, the display form used for printed moments."""
    nu_of_hbar = Expr.number(2) * Expr.symbol("dQ") * Expr.symbol("dP") / Expr.symbol("hbar")
    return expr.substitute({"nu": nu_of_hbar})


# ---------------------------------------------------------------------------
# entropy and the ground wavefunction
# ---------------------------------------------------------------------------


def entropy_quantum(nu: float) -> float:
    """-ln 2 + ((nu+1)/2) ln(nu+1) - ((nu-1)/2) ln(nu-1); zero at nu = 1."""
    nu = float(nu)
    if nu < 1:
        raise DomainError(f"entropy needs nu >= 1, got {nu}")
    if nu == 1:
        return 0.0
    return (
        -math.log(2.0)
        + (nu + 1.0) / 2.0 * math.log(nu + 1.0)
        - (nu - 1.0) / 2.0 * math.log(nu - 1.0)
    )


def entropy_from_multipliers(packet: PacketMoments) -> float:
    """Legendre-form cross-check: ln Z + sum(lam_i * constraint_i).

    Must reproduce `entropy_quantum` by a route with other cancellations:
    this one cancels between multipliers that diverge as nu -> 1, while the
    direct formula cancels its two terms of about nu ln nu as nu grows (a
    relative error of 1.3e-3 at nu = 1e14, where this route is within
    1e-16).  It is evaluated in the centred frame Q = P = 0 (same dQ, dP,
    hbar): the entropy does not depend on the centre (`stationarity_defect`),
    while far from the origin ln Z and lam1 Q, lam2 P cancel catastrophically.
    """
    packet = packet.with_moments(Q=0, P=0)
    b = packet.bindings()
    mult = solve_multipliers_quantum(packet)
    z = partition_quantum(mult)
    lam = [getattr(mult, f"lam{i}").evaluate(b).real for i in (1, 2, 3, 4)]
    constraints = [
        b["Q"],
        b["P"],
        b["Q"] ** 2 + b["dQ"] ** 2,
        b["P"] ** 2 + b["dP"] ** 2,
    ]
    return z.log_evaluate(b) + sum(l * c for l, c in zip(lam, constraints))


def entropy_weight_sum(nu: float) -> float:
    """-sum_k R_k ln R_k over the fewest levels whose dropped tail is at
    most ENTROPY_TAIL_TOL.

    Raises DomainError when that takes more than 10,000,000 terms.
    """
    if nu == 1:
        return 0.0
    terms = tail_levels(nu, ENTROPY_TAIL_TOL)
    if terms > 10_000_000:
        raise DomainError(f"entropy weight sum at nu = {nu} needs {terms} terms, over 10,000,000")
    x = (nu - 1.0) / (nu + 1.0)
    total, rk = 0.0, 2.0 / (nu + 1.0)
    for _ in range(terms):
        total -= rk * math.log(rk)
        rk *= x
    return total


def ground_wavefunction(packet: PacketMoments, q: float) -> complex:
    """Number-basis ground state in the position representation:
    (nu/(2 pi dQ^2))^(1/4) exp(-nu (q-Q)^2 / (4 dQ^2) + i P q / hbar)."""
    import cmath

    b = packet.bindings()
    packet.require_quantum()
    nu, dq = b["nu"], b["dQ"]
    norm = (nu / (2.0 * math.pi * dq * dq)) ** 0.25
    phase = 1j * b["P"] * q / b["hbar"]
    return norm * cmath.exp(-nu * (q - b["Q"]) ** 2 / (4.0 * dq * dq) + phase)


def stationarity_defect(mult) -> Expr:
    """lam1 + 2 lam3 Q: vanishes identically for ME multipliers, which is
    the statement that entropy does not depend on the centre Q."""
    q = Expr.symbol("Q")
    return mult.lam1 + Expr.number(2) * mult.lam3 * q
