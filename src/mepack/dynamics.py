"""Time evolution of packet moments.

Quadratic potentials evolve in closed form (the moment equations close on
(Q, P, dQ, dP)); general polynomial potentials get a Taylor engine that
iterates the equation of motion at t = 0 on phase-space polynomials,

    classical:  dX/dt = {X, H}                                (Poisson)
    quantum:    dX/dt = {X, H}
                        - sum_{k>=1} (-hbar^2/4)^k / (2k+1)!
                          * V^(2k+1)(q) * d_p^(2k+1) X        (Moyal)

for X in {q, p, q^2, p^2, qp}.  On the quantum side X is the Weyl symbol
of the observable and the step is the Moyal bracket with
H = p^2/2m + V(q) (Moyal, Proc. Camb. Phil. Soc. 45, 99 (1949)), so both
chains are commutative polynomial arithmetic (the Poisson chain, the
Moyal chain's independent check, by the general `poisson_bracket`).  The
Moyal weights carry hbar already written as 2 dQ dP / nu, so the quantum
chains are in packet symbols; the quantum packet's Wigner function is the
classical packet Gaussian, so a symbol is averaged with the classical
moments as it is.
Every caller reads one chain store per potential, which walks each chain
once.  dq/dt = p/m under both brackets, so the q chain is read off the p
chain and never walked.  `derivatives_quantum` restores hbar only for its
printed operators, converting each symbol once to a q-left ordered
`WeylPolynomial` (`WeylPolynomial.from_symbol`).  The classical and
quantum averaged equations coincide through fourth order.  Each order's
Moyal p entry is averaged once, its nu^0 part is the classical average,
and `quantum_correction` averages only the entry's 1/nu part.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra.expression import Expr, sum_of_products
from .algebra.ladder import HBAR_AS_NU
from .algebra.phase import PhasePolynomial, poisson_bracket
from .algebra.weyl import WeylPolynomial
from .classical import entropy_classical, moment_classical
from .errors import DomainError, HorizonError, routes_agree
from .packets import FieldValue, PacketMoments, exact_value, float_value
from .quantum import entropy_quantum, expectation_quantum, restore_hbar


class PolynomialPotential(namedtuple("PolynomialPotential", "mass coefficients")):
    """V(q) = sum_k V_k q^k / k! with mass m; coefficients[k] is V_k.  The
    mass and the coefficients are held as `Expr` (numbers exactly)."""

    __slots__ = ()

    def __new__(cls, mass: FieldValue, coefficients: Sequence[FieldValue]):
        exact_value(mass, "mass", positive=True)
        for c in coefficients:
            exact_value(c, "potential coefficients")
        return super().__new__(cls, Expr.coerce(mass), tuple(map(Expr.coerce, coefficients)))

    @classmethod
    def symbolic(cls, degree: int) -> "PolynomialPotential":
        return cls(
            Expr.symbol("m"),
            tuple(Expr.symbol(f"V{k}") for k in range(degree + 1)),
        )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_numeric(self) -> bool:
        return all(c.is_constant() for c in (self.mass,) + self.coefficients)

    def effective_degree(self) -> int:
        return max((k for k, c in enumerate(self.coefficients) if c), default=0)

    def coefficient(self, k: int) -> float:
        if k < 0:
            raise DomainError(f"potential coefficient index must be >= 0, got {k}")
        if k >= len(self.coefficients):
            return 0.0
        return _number(self.coefficients[k], f"coefficient V{k}")

    def mass_value(self) -> float:
        return _number(self.mass, "mass")


def _number(value: Expr, what: str) -> float:
    if not value.is_constant():
        raise DomainError(f"numeric {what} requested from symbolic potential")
    return float_value(value.constant_value().re, what)


def hamiltonian(potential: PolynomialPotential) -> PhasePolynomial:
    """H = p^2/(2m) + V(q) on phase space, which is also the Weyl symbol of
    the operator H (it has no q p term)."""
    h = PhasePolynomial({(0, 2): Expr.number(Fraction(1, 2)) / potential.mass})
    for k, c in enumerate(potential.coefficients):
        h = h + PhasePolynomial({(k, 0): c * Expr.number(Fraction(1, math.factorial(k)))})
    return h


# ---------------------------------------------------------------------------
# derivative chains and tables
# ---------------------------------------------------------------------------

_Q, _P = PhasePolynomial.q(), PhasePolynomial.p()
# the tracked observables as phase-space polynomials; they are also the
# Weyl symbols of the quantum observables q, p, q^2, p^2 and (qp + pq)/2
_OBSERVABLES = {"q": _Q, "p": _P, "q2": _Q * _Q, "p2": _P * _P, "qp": _Q * _P}


class DerivativeTable(NamedTuple):
    """d^n q/dt^n and d^n p/dt^n at t = 0, n = 1..order, or their packet
    averages (`averaged_derivatives`)."""

    kind: str  # "classical" | "quantum"
    q: Tuple
    p: Tuple


def _classical_step(h):
    return lambda x: poisson_bracket(x, h)


def _moyal_step(h: PhasePolynomial):
    """The Moyal bracket with H = p^2/2m + V(q) on Weyl symbols, one sum of
    products per output coefficient: X -> (p/m) d_q X - sum_{k>=0} w_k
    V^(2k+1)(q) d_p^(2k+1) X, w_k = (-hbar^2/4)^k/(2k+1)!, hbar = 2 dQ dP/nu.
    1/m and V' are read off `h`."""
    inv_m = h.coefficient(0, 2) * 2
    odd_terms = []  # (2k+1, [(j, -w_k * [q^j] V^(2k+1))]) for k = 0, 1, ...
    dv = h.diff_q()  # V'(q), as p^2/2m has no q
    k = 0
    while not dv.is_zero():
        weight = Expr.number(
            Fraction((-1) ** (k + 1), 4 ** k * math.factorial(2 * k + 1))
        ) * HBAR_AS_NU ** (2 * k)
        odd_terms.append((2 * k + 1, [(j, c * weight) for (j, _), c in dv.terms()]))
        dv = dv.diff_q().diff_q()
        k += 1

    def step(x):
        xs = x._terms.items()
        pairs = {}  # output key -> its (coefficient, factor) pairs
        for (a, b), c in xs:
            if a:
                pairs.setdefault((a - 1, b + 1), []).append((c, inv_m * a))
        for n, vs in odd_terms:
            # terms in the order of d_p X * V' and V^(2k+1) * d_p^(2k+1) X; floats follow it
            grid = ((t, v) for t in xs for v in vs) if n == 1 else ((t, v) for v in vs for t in xs)
            for ((a, b), c), (j, v) in grid:
                if b >= n:
                    pairs.setdefault((a + j, b - n), []).append((c, v * math.perm(b, n)))
        return PhasePolynomial({key: sum_of_products(ps) for key, ps in pairs.items()})

    return step


@lru_cache(maxsize=16)
def _chains(potential: PolynomialPotential) -> dict:
    """The chain store of one potential: per bracket ("quantum" is Moyal,
    "classical" Poisson), its step and the chains walked so far, which
    `_chain` grows on demand."""
    h = hamiltonian(potential)
    return {"quantum": (_moyal_step(h), {}), "classical": (_classical_step(h), {})}


def _chain(potential: PolynomialPotential, kind: str, name: str, order: int) -> List:
    """[x0, ..., d^order x0/dt^order] for the tracked observable `name`
    under bracket `kind`, walking only the steps the store does not hold
    yet.  dq/dt = p/m under both brackets, as d_p^3 q = 0, so the q chain
    is read off the p chain and never walked."""
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order}")
    if name == "q":
        inv_m = potential.mass.inverse()
        ps = _chain(potential, kind, "p", order)[:-1]
        return [_Q] + [x.map_coefficients(lambda c: c * inv_m) for x in ps]
    step, chains = _chains(potential)[kind]
    chain = chains.setdefault(name, [_OBSERVABLES[name]])
    while len(chain) <= order:
        chain.append(step(chain[-1]))
    return chain[: order + 1]


def _derivative_table(potential: PolynomialPotential, order: int, kind: str, convert):
    q, p = (tuple(map(convert, _chain(potential, kind, name, order)[1:])) for name in "qp")
    return DerivativeTable(kind, q, p)


def derivatives_classical(potential: PolynomialPotential, order: int) -> DerivativeTable:
    return _derivative_table(potential, order, "classical", lambda x: x)


def derivatives_quantum(potential: PolynomialPotential, order: int) -> DerivativeTable:
    """The Heisenberg derivatives as q-left ordered operators in hbar,
    converted once from the Moyal chain of Weyl symbols (the rewrite
    nu -> 2 dQ dP / hbar is exact, as the chain has Laurent monomials)."""
    return _derivative_table(
        potential, order, "quantum",
        lambda x: WeylPolynomial.from_symbol(x.map_coefficients(restore_hbar)),
    )


def _average(packet: PacketMoments, entry) -> Expr:
    """Packet average of a q-left ordered operator (`WeylPolynomial`), or
    of a phase-space polynomial or Weyl symbol in packet symbols over the
    packet Gaussian (a symbol's Wigner function)."""
    if isinstance(entry, WeylPolynomial):
        return expectation_quantum(packet, entry)
    return moment_classical(packet, entry)


def averaged_derivatives(table: DerivativeTable, packet: PacketMoments) -> DerivativeTable:
    return DerivativeTable(
        table.kind,
        tuple(_average(packet, e) for e in table.q),
        tuple(_average(packet, e) for e in table.p),
    )


def _checked_p_entry(potential: PolynomialPotential, order: int):
    """The Moyal chain's d^order p/dt^order and its hbar^0 (nu^0) part, which
    must equal the Poisson chain's entry (else AssertionError), on every call."""
    quantum = _chain(potential, "quantum", "p", order)[-1]
    classical = quantum.map_coefficients(lambda c: c.drop_symbol("nu"))
    routes_agree(f"hbar^0 part of the Moyal chain differs from the Poisson chain at order {order}",
                 classical, _chain(potential, "classical", "p", order)[-1])
    return quantum, classical


def averaged_p_derivatives(potential: PolynomialPotential, order: int) -> Tuple[Expr, Expr]:
    """(quantum, classical) averaged d^order P/dt^order in packet symbols.

    The quantum side averages the Moyal chain's Weyl symbol of p over the
    packet Gaussian (the Wigner function).  The symbol carries nu only as
    nu^(-2k) and the Gaussian moments carry none, so the classical side is
    the nu^0 part of that one average.  The symbol's nu^0 part is checked
    against the Poisson chain on every call (`_checked_p_entry`).
    """
    average = moment_classical(PacketMoments.symbolic(), _checked_p_entry(potential, order)[0])
    return average, average.drop_symbol("nu")


def quantum_correction(potential: PolynomialPotential, order: int) -> Expr:
    """Quantum minus classical averaged d^order P/dt^order, as a polynomial
    in 1/nu; `PacketMoments.specialize` puts in a numeric packet.  Averaging
    is linear and the Gaussian moments carry no nu, so only the Moyal entry's
    1/nu part is averaged (none through order 4, or for V of degree 3)."""
    quantum, classical = _checked_p_entry(potential, order)
    return moment_classical(PacketMoments.symbolic(), quantum - classical)


# ---------------------------------------------------------------------------
# quadratic closed form
# ---------------------------------------------------------------------------


class QuadraticFlow(NamedTuple):
    """q(t) = f0 + q f1 + p f2, p(t) = g0 + q g1 + p g2."""

    f0: float
    f1: float
    f2: float
    g0: float
    g1: float
    g2: float
    branch: str  # "oscillatory" | "uniform" | "hyperbolic"


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"evolution time must be finite, got t = {t}")
    return t


def quadratic_flow(potential: PolynomialPotential, t: float) -> QuadraticFlow:
    if potential.effective_degree() > 2:
        raise DomainError(
            "closed-form evolution needs degree <= 2; use the Taylor engine for "
            f"degree {potential.effective_degree()}"
        )
    m = potential.mass_value()
    v1, v2 = potential.coefficient(1), potential.coefficient(2)
    t = _finite_time(t)
    if v2 > 0:
        xi, omega = math.sqrt(m * v2), math.sqrt(v2 / m)
        c, s = math.cos(omega * t), math.sin(omega * t)
        return QuadraticFlow(
            -v1 / v2 * (1.0 - c), c, s / xi,
            -xi * v1 / v2 * s, -xi * s, c,
            "oscillatory",
        )
    if v2 == 0:
        return QuadraticFlow(
            -v1 * t * t / (2.0 * m), 1.0, t / m,
            -v1 * t, 0.0, 1.0,
            "uniform",
        )
    xi, omega = math.sqrt(-m * v2), math.sqrt(-v2 / m)
    try:
        ch, sh = math.cosh(omega * t), math.sinh(omega * t)
    except OverflowError:
        raise HorizonError(f"closed-form flow leaves float range at t = {t}") from None
    return QuadraticFlow(
        -v1 / v2 * (1.0 - ch), ch, sh / xi,
        xi * v1 / v2 * sh, xi * sh, ch,
        "hyperbolic",
    )


def evolve_quadratic(
    packet: PacketMoments, potential: PolynomialPotential, t: float
) -> PacketMoments:
    """Exact moment evolution for degree <= 2; the same formulas hold for
    classical and quantum packets because <qp + pq> = 2 Q P.  Raises
    HorizonError where a moment leaves float range (an inverted
    oscillator's spreads grow as e^(omega t))."""
    b = packet.bindings()
    q, p, dq, dp = b["Q"], b["P"], b["dQ"], b["dP"]
    try:
        f = quadratic_flow(potential, t)
        moments = (
            f.f0 + q * f.f1 + p * f.f2,
            f.g0 + q * f.g1 + p * f.g2,
            math.sqrt(f.f1 ** 2 * dq ** 2 + f.f2 ** 2 * dp ** 2),
            math.sqrt(f.g1 ** 2 * dq ** 2 + f.g2 ** 2 * dp ** 2),
        )
        if all(map(math.isfinite, moments)):
            return PacketMoments(*moments, hbar=packet.hbar)
    except OverflowError:
        pass
    raise HorizonError(f"closed-form moments leave float range at t = {t}")


# ---------------------------------------------------------------------------
# Taylor propagation
# ---------------------------------------------------------------------------


class Trajectory(NamedTuple):
    times: Tuple[float, ...]
    packets: Tuple[PacketMoments, ...]
    nus: Tuple[float, ...]
    entropies: Tuple[float, ...]
    provenance: str
    kind: str
    remainder_estimate: float = 0.0

    def rows(self):
        for t, pk, nu, s in zip(self.times, self.packets, self.nus, self.entropies):
            b = pk.bindings()
            yield (t, b["Q"], b["P"], b["dQ"], b["dP"], nu, s)


def _taylor_series(potential: PolynomialPotential, order: int, kind: str) -> dict:
    """Averaged Taylor coefficients <d^n X/dt^n>/n! for each tracked observable;
    as dq/dt = p/m, q's coefficient n is p's coefficient n-1 over m n."""
    sym = PacketMoments.symbolic()
    series = {
        name: [
            _average(sym, entry) * Expr.number(Fraction(1, math.factorial(n)))
            for n, entry in enumerate(_chain(potential, kind, name, order))
        ]
        for name in ("p", "q2", "p2", "qp")
    }
    q = [c / (potential.mass * n) for n, c in enumerate(series["p"][:-1], 1)]
    return {"q": [_average(sym, _Q)] + q, **series}


def _grid_checked(grid: Sequence[float], kind: str) -> List[float]:
    """The grid's times, checked before any evolution, as is the packet kind."""
    if kind not in ("classical", "quantum"):
        raise DomainError(f"unknown packet kind {kind!r}")
    times = [_finite_time(t) for t in grid]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError("time grid must be strictly increasing")
    if times and times[0] < 0:
        raise DomainError("time grid must start at or after 0")
    return times


def _entropy_of(kind: str, packet: PacketMoments, nu: float, v: Optional[float]) -> float:
    if kind == "quantum":
        return entropy_quantum(nu) if nu >= 1.0 else float("nan")
    return entropy_classical(packet, v)


def _trajectory(
    times: List[float],
    packets: List[PacketMoments],
    kind: str,
    v: Optional[float],
    provenance: str,
    remainder: float = 0.0,
) -> Trajectory:
    """The trajectory of `packets`, with each packet's nu from `bindings()`."""
    nus = tuple(pk.bindings()["nu"] for pk in packets)
    entropies = tuple(_entropy_of(kind, pk, nu, v) for pk, nu in zip(packets, nus))
    return Trajectory(
        tuple(times), tuple(packets), nus, entropies,
        provenance=provenance, kind=kind, remainder_estimate=remainder,
    )


def propagate(
    packet: PacketMoments,
    potential: PolynomialPotential,
    grid: Sequence[float],
    order: int,
    mode: str = "taylor-origin",
    kind: str = "classical",
    v: Optional[float] = None,
) -> Trajectory:
    """Propagate packet moments on a time grid.

    taylor-origin evaluates one Taylor polynomial built at t = 0 on the
    whole grid.  repacketized-stepping re-instantiates a fresh packet
    after each step, discarding the accumulated q-p correlation; this is a
    documented approximation, not an exact scheme.  The magnitude of the
    largest retained last Taylor term is reported as a crude remainder
    proxy.  Raises HorizonError, naming the time, where the series leaves
    float range.
    """
    if order < 2:
        raise DomainError(f"Taylor order must be >= 2, got {order}")
    if mode not in ("taylor-origin", "repacketized-stepping"):
        raise DomainError(f"unknown propagation mode {mode!r}")
    times = _grid_checked(grid, kind)
    if times and times[0] != 0.0:
        raise DomainError("time grid must start at 0")
    series = _taylor_series(potential, order, kind)

    def coeffs_at(pk: PacketMoments) -> dict:
        b = pk.bindings()
        return {
            name: [term.evaluate(b).real for term in terms]
            for name, terms in series.items()
        }

    def eval_series(c: List[float], dt: float) -> float:
        # left to right: sum() compensates float sums from Python 3.12 on
        total = 0
        for n, cn in enumerate(c):
            total += cn * dt ** n
        return total

    def moments_at(coeffs: dict, dt: float) -> Tuple[PacketMoments, float]:
        qm = eval_series(coeffs["q"], dt)
        pm = eval_series(coeffs["p"], dt)
        q2 = eval_series(coeffs["q2"], dt)
        p2 = eval_series(coeffs["p2"], dt)
        var_q, var_p = q2 - qm * qm, p2 - pm * pm
        if not all(map(math.isfinite, (qm, pm, var_q, var_p))):
            raise OverflowError  # a float sum past range is inf, not an error
        if min(var_q, var_p) <= 0:
            raise DomainError(
                f"Taylor moments lost positivity at dt = {dt}; shrink the horizon"
            )
        last = max(abs(c[-1]) * abs(dt) ** order for c in coeffs.values())
        return (
            PacketMoments(qm, pm, math.sqrt(var_q), math.sqrt(var_p), hbar=packet.hbar),
            last,
        )

    packets = []
    remainder = 0.0
    t = 0.0
    try:
        if mode == "taylor-origin":
            coeffs = coeffs_at(packet)
            for t in times:
                pk, last = moments_at(coeffs, t)
                remainder = max(remainder, last)
                packets.append(pk)
        else:
            current = packet
            prev_t = 0.0
            for t in times:
                if t == 0.0:
                    packets.append(current)
                    continue
                coeffs = coeffs_at(current)
                current, last = moments_at(coeffs, t - prev_t)
                remainder = max(remainder, last)
                packets.append(current)
                prev_t = t
    except OverflowError:
        raise HorizonError(f"Taylor series leaves float range at t = {t}") from None
    return _trajectory(times, packets, kind, v, mode, remainder)


def trajectory_quadratic(
    packet: PacketMoments,
    potential: PolynomialPotential,
    grid: Sequence[float],
    kind: str = "classical",
    v: Optional[float] = None,
) -> Trajectory:
    """Exact trajectory on a grid for degree <= 2 potentials."""
    times = _grid_checked(grid, kind)
    packets = [evolve_quadratic(packet, potential, t) for t in times]
    return _trajectory(times, packets, kind, v, "quadratic-exact")
