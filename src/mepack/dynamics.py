"""Time evolution of packet moments.

Quadratic potentials evolve in closed form (the moment equations close on
(Q, P, dQ, dP)); general polynomial potentials get a Taylor engine that
iterates the equation of motion at t = 0,

    classical:  dX/dt = {X, H}         (Poisson bracket)
    quantum:    dX/dt = [X, H]/(i hbar)

for X in {q, p, q^2, p^2, qp}, averages the resulting tables over the
packet, and sums the Taylor polynomial.  The classical and quantum
averaged equations coincide through fourth order; `quantum_correction`
extracts the residual as a polynomial in 1/nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .algebra.expression import Expr
from .algebra.phase import PhasePolynomial, poisson_bracket
from .algebra.weyl import WeylPolynomial, commutator
from .classical import entropy_classical, moment_classical
from .errors import DomainError
from .packets import FieldValue, PacketMoments, _as_expr
from .quantum import entropy_quantum, expectation_quantum

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class PolynomialPotential:
    """V(q) = sum_k V_k q^k / k! with mass m; coefficients[k] is V_k."""

    mass: FieldValue
    coefficients: Tuple[FieldValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not isinstance(self.mass, Expr) and float(self.mass) <= 0:
            raise DomainError(f"mass must be positive, got {self.mass}")

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
        return not isinstance(self.mass, Expr) and all(
            not isinstance(c, Expr) for c in self.coefficients
        )

    def effective_degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coefficients):
            if isinstance(c, Expr):
                if not c.is_zero():
                    deg = k
            elif c != 0:
                deg = k
        return deg

    def coefficient(self, k: int) -> float:
        if k >= len(self.coefficients):
            return 0.0
        c = self.coefficients[k]
        if isinstance(c, Expr):
            raise DomainError("numeric coefficient requested from symbolic potential")
        return float(c)

    def mass_value(self) -> float:
        if isinstance(self.mass, Expr):
            raise DomainError("numeric mass requested from symbolic potential")
        return float(self.mass)


def hamiltonian(potential: PolynomialPotential, cls):
    """H = p^2/(2m) + V(q) as a `cls` polynomial (phase space or Weyl)."""
    m = _as_expr(potential.mass)
    h = cls({(0, 2): Expr.number(Fraction(1, 2)) / m})
    for k, c in enumerate(potential.coefficients):
        coeff = _as_expr(c) * Expr.number(Fraction(1, math.factorial(k)))
        h = h + cls({(k, 0): coeff})
    return h


# ---------------------------------------------------------------------------
# derivative tables
# ---------------------------------------------------------------------------

_INV_I_HBAR = Expr.number(1) / (Expr.i() * Expr.symbol("hbar"))


@dataclass(frozen=True)
class DerivativeTable:
    """d^n q/dt^n and d^n p/dt^n at t = 0, n = 1..order."""

    kind: str  # "classical" | "quantum"
    potential: PolynomialPotential
    q: Tuple
    p: Tuple

    @property
    def order(self) -> int:
        return len(self.p)


def _classical_step(h):
    return lambda x: poisson_bracket(x, h)

def _quantum_step(h):
    return lambda x: commutator(x, h).map_coefficients(lambda c: c * _INV_I_HBAR)


def derivative_chain(x0, step, order: int) -> List:
    """[x0, dx0/dt, ..., d^order x0/dt^order]."""
    chain = [x0]
    for _ in range(order):
        chain.append(step(chain[-1]))
    return chain


def derivatives_classical(potential: PolynomialPotential, order: int) -> DerivativeTable:
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order}")
    step = _classical_step(hamiltonian(potential, PhasePolynomial))
    qs = derivative_chain(PhasePolynomial.q(), step, order)[1:]
    ps = derivative_chain(PhasePolynomial.p(), step, order)[1:]
    return DerivativeTable("classical", potential, tuple(qs), tuple(ps))


def derivatives_quantum(potential: PolynomialPotential, order: int) -> DerivativeTable:
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order}")
    step = _quantum_step(hamiltonian(potential, WeylPolynomial))
    qs = derivative_chain(WeylPolynomial.q(), step, order)[1:]
    ps = derivative_chain(WeylPolynomial.p(), step, order)[1:]
    return DerivativeTable("quantum", potential, tuple(qs), tuple(ps))


@dataclass(frozen=True)
class AveragedDerivatives:
    """d^n Q/dt^n and d^n P/dt^n as expressions in the packet data."""

    kind: str
    q: Tuple[Expr, ...]
    p: Tuple[Expr, ...]


def _average(kind: str, packet: PacketMoments, entry) -> Expr:
    if kind == "classical":
        return moment_classical(packet, entry)
    return expectation_quantum(packet, entry)


def averaged_derivatives(table: DerivativeTable, packet: PacketMoments) -> AveragedDerivatives:
    return AveragedDerivatives(
        table.kind,
        tuple(_average(table.kind, packet, e) for e in table.q),
        tuple(_average(table.kind, packet, e) for e in table.p),
    )


def quantum_correction(
    potential: PolynomialPotential, order: int, packet: Optional[PacketMoments] = None
) -> Expr:
    """Quantum minus classical averaged d^order P/dt^order, as a polynomial
    in 1/nu (hbar already rewritten as 2 dQ dP / nu)."""
    if packet is None:
        packet = PacketMoments.symbolic()
    sym = PacketMoments.symbolic()
    quantum = averaged_derivatives(derivatives_quantum(potential, order), sym).p[-1]
    classical = averaged_derivatives(derivatives_classical(potential, order), sym).p[-1]
    correction = quantum - classical
    if not packet.is_symbolic:
        sub = packet.expr_fields()
        sub["nu"] = _as_expr(packet.nu)
        correction = correction.substitute(sub)
    return correction


def nu_power_profile(expr: Expr) -> dict:
    """Coefficients of the expression grouped by the power of nu."""
    return expr.as_poly_in("nu")


# ---------------------------------------------------------------------------
# quadratic closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFlow:
    """q(t) = f0 + q f1 + p f2, p(t) = g0 + q g1 + p g2."""

    f0: float
    f1: float
    f2: float
    g0: float
    g1: float
    g2: float
    branch: str  # "oscillatory" | "uniform" | "hyperbolic"

    @property
    def bounded(self) -> bool:
        return self.branch == "oscillatory"


def quadratic_flow(potential: PolynomialPotential, t: float) -> QuadraticFlow:
    if potential.effective_degree() > 2:
        raise DomainError(
            "closed-form evolution needs degree <= 2; use the Taylor engine for "
            f"degree {potential.effective_degree()}"
        )
    m = potential.mass_value()
    v1, v2 = potential.coefficient(1), potential.coefficient(2)
    t = float(t)
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
    ch, sh = math.cosh(omega * t), math.sinh(omega * t)
    return QuadraticFlow(
        -v1 / v2 * (1.0 - ch), ch, sh / xi,
        xi * v1 / v2 * sh, xi * sh, ch,
        "hyperbolic",
    )


def evolve_quadratic(
    packet: PacketMoments, potential: PolynomialPotential, t: float
) -> PacketMoments:
    """Exact moment evolution for degree <= 2; the same formulas hold for
    classical and quantum packets because <qp + pq> = 2 Q P."""
    f = quadratic_flow(potential, t)
    b = packet.bindings()
    q, p, dq, dp = b["Q"], b["P"], b["dQ"], b["dP"]
    return PacketMoments(
        Q=f.f0 + q * f.f1 + p * f.f2,
        P=f.g0 + q * f.g1 + p * f.g2,
        dQ=math.sqrt(f.f1 ** 2 * dq ** 2 + f.f2 ** 2 * dp ** 2),
        dP=math.sqrt(f.g1 ** 2 * dq ** 2 + f.g2 ** 2 * dp ** 2),
        hbar=packet.hbar,
    )


# ---------------------------------------------------------------------------
# Taylor propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
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


def _observables(cls) -> dict:
    """The tracked observables, with qp symmetrized (plain qp when q, p commute)."""
    q, p = cls.q(), cls.p()
    half = Expr.number(Fraction(1, 2))
    return {
        "q": q,
        "p": p,
        "q2": q * q,
        "p2": p * p,
        "qp": (q * p + p * q).map_coefficients(lambda c: c * half),
    }


def _taylor_series(potential: PolynomialPotential, order: int, kind: str) -> dict:
    """Averaged Taylor coefficient expressions for each tracked observable."""
    if kind == "classical":
        cls, step_of = PhasePolynomial, _classical_step
    else:
        cls, step_of = WeylPolynomial, _quantum_step
    step = step_of(hamiltonian(potential, cls))
    sym = PacketMoments.symbolic()
    series = {}
    for name, x0 in _observables(cls).items():
        chain = derivative_chain(x0, step, order)
        series[name] = [
            _average(kind, sym, entry) * Expr.number(Fraction(1, math.factorial(n)))
            for n, entry in enumerate(chain)
        ]
    return series


def _grid_checked(grid: Sequence[float]) -> List[float]:
    times = [float(t) for t in grid]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise DomainError("time grid must be strictly increasing")
    if times and times[0] < 0:
        raise DomainError("time grid must start at or after 0")
    return times


def _entropy_of(kind: str, packet: PacketMoments, nu: float, v: Optional[float]) -> float:
    if kind == "quantum":
        return entropy_quantum(nu) if nu >= 1.0 else float("nan")
    return entropy_classical(packet, v)


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
    proxy.
    """
    if order < 2:
        raise DomainError(f"Taylor order must be >= 2, got {order}")
    if mode not in ("taylor-origin", "repacketized-stepping"):
        raise DomainError(f"unknown propagation mode {mode!r}")
    if kind not in ("classical", "quantum"):
        raise DomainError(f"unknown packet kind {kind!r}")
    times = _grid_checked(grid)
    if times and times[0] != 0.0:
        raise DomainError("time grid must start at 0")
    series = _taylor_series(potential, order, kind)
    hbar = float(packet.hbar) if packet.hbar is not None else 1.0

    def coeffs_at(pk: PacketMoments) -> dict:
        b = pk.bindings()
        return {
            name: [term.evaluate(b).real for term in terms]
            for name, terms in series.items()
        }

    def eval_series(c: List[float], dt: float) -> float:
        return sum(cn * dt ** n for n, cn in enumerate(c))

    def moments_at(coeffs: dict, dt: float) -> Tuple[PacketMoments, float]:
        qm = eval_series(coeffs["q"], dt)
        pm = eval_series(coeffs["p"], dt)
        q2 = eval_series(coeffs["q2"], dt)
        p2 = eval_series(coeffs["p2"], dt)
        var_q, var_p = q2 - qm * qm, p2 - pm * pm
        if min(var_q, var_p) <= 0:
            raise DomainError(
                f"Taylor moments lost positivity at dt = {dt}; shrink the horizon"
            )
        last = max(abs(c[-1]) * abs(dt) ** order for c in coeffs.values())
        return (
            PacketMoments(qm, pm, math.sqrt(var_q), math.sqrt(var_p), hbar=packet.hbar),
            last,
        )

    packets, nus, entropies = [], [], []
    remainder = 0.0
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
    for pk in packets:
        b = pk.bindings()
        nu = 2.0 * b["dQ"] * b["dP"] / hbar
        nus.append(nu)
        entropies.append(_entropy_of(kind, pk, nu, v))
    return Trajectory(
        tuple(times), tuple(packets), tuple(nus), tuple(entropies),
        provenance=mode, kind=kind, remainder_estimate=remainder,
    )


def trajectory_quadratic(
    packet: PacketMoments,
    potential: PolynomialPotential,
    grid: Sequence[float],
    kind: str = "classical",
    v: Optional[float] = None,
) -> Trajectory:
    """Exact trajectory on a grid for degree <= 2 potentials."""
    times = _grid_checked(grid)
    hbar = float(packet.hbar) if packet.hbar is not None else 1.0
    packets = [evolve_quadratic(packet, potential, t) for t in times]
    nus, entropies = [], []
    for pk in packets:
        b = pk.bindings()
        nu = 2.0 * b["dQ"] * b["dP"] / hbar
        nus.append(nu)
        entropies.append(_entropy_of(kind, pk, nu, v))
    return Trajectory(
        tuple(times), tuple(packets), tuple(nus), tuple(entropies),
        provenance="quadratic-exact", kind=kind,
    )
