"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; the ACCEPT lines are written
straight to the terminal so they appear with or without capture.

Criterion 3 has two tests.  The order-5 test pins the first non-zero
correction and that no 1/nu term appears.  The order-3 quintic test pins
that the order-3 correction is exactly zero for every polynomial V: the
quantum packet is a Gaussian state whose Wigner function is the classical
packet (Hillery, O'Connell, Scully and Wigner, Phys. Rep. 106, 121 (1984)),
and the Moyal bracket (Moyal, Proc. Camb. Phil. Soc. 45, 99 (1949)) of the
symbol of d^2p/dt^2, -p V''(q)/m, with H = p^2/2m + V(q) has no hbar terms
because that symbol is linear in p.  The test also pins the two non-zero
pieces of the engine's q-left table whose sum is that zero.
"""

import json
import math
import random
import sys
import time

import numpy as np
import pytest

from mepack.algebra import (
    Expr,
    WeylPolynomial,
    parse_expression,
    parse_phase,
    parse_weyl,
)
from mepack.classical import (
    ClassicalMultipliers,
    moment_classical,
    partition_classical,
    solve_multipliers_classical,
)
from mepack.dynamics import (
    PolynomialPotential,
    averaged_derivatives,
    derivatives_classical,
    derivatives_quantum,
    evolve_quadratic,
    quantum_correction,
)
from mepack.oracle import (
    fock_evolve,
    fock_expectation,
    fock_state,
    gaussian_moment_numeric,
    state_entropy,
    state_moments,
)
from mepack.packets import PacketMoments
from mepack.quantum import (
    QuantumMultipliers,
    entropy_quantum,
    entropy_weight_sum,
    expectation_quantum,
    fock_weight,
    log_ratio_factor,
    partition_quantum,
    restore_hbar,
    solve_multipliers_quantum,
    stationarity_defect,
)

SYM = PacketMoments.symbolic()


def _check(number, label, fn, budget=None):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPT C{number} {label}: FAIL ({elapsed:.1f}s)", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPT C{number} {label}: PASS ({elapsed:.1f}s)", file=sys.__stdout__)
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s budget"


# -- C1: classical derivative tables and averaged equations -----------------

EQ_50 = {
    1: "-V1 - V2*q - (1/2)*V3*q^2 - (1/6)*V4*q^3",
    2: "-V2/m*p - V3/m*q*p - V4/(2*m)*q^2*p",
    3: "-V3/m^2*p^2 - V4/m^2*q*p^2 + V1*V2/m + (V1*V3+V2^2)/m*q"
       " + (3*V2*V3+V1*V4)/(2*m)*q^2 + (4*V2*V4+3*V3^2)/(6*m)*q^3"
       " + 5*V3*V4/(12*m)*q^4 + V4^2/(12*m)*q^5",
    4: "-V4/m^3*p^3 + (3*V1*V3+V2^2)/m^2*p + (3*V1*V4+5*V2*V3)/m^2*q*p"
       " + (5*V3^2+8*V2*V4)/(2*m^2)*q^2*p + 3*V3*V4/m^2*q^3*p"
       " + 3*V4^2/(4*m^2)*q^4*p",
}

EQ_51 = {
    1: "-V1 - V2*Q - (1/2)*V3*Q^2 - (1/6)*V4*Q^3 - (V3+V4*Q)/2*dQ^2",
    2: "-V2/m*P - V3/m*Q*P - V4/(2*m)*Q^2*P - V4/(2*m)*P*dQ^2",
    3: "-V3/m^2*P^2 - V4/m^2*Q*P^2 + V1*V2/m + (V1*V3+V2^2)/m*Q"
       " + (3*V2*V3+V1*V4)/(2*m)*Q^2 + (4*V2*V4+3*V3^2)/(6*m)*Q^3"
       " + 5*V3*V4/(12*m)*Q^4 + V4^2/(12*m)*Q^5 - (V3/m^2 + V4/m^2*Q)*dP^2"
       " + ((3*V2*V3+V1*V4)/(2*m) + (4*V2*V4+3*V3^2)/(2*m)*Q + 5*V3*V4/(2*m)*Q^2"
       " + 5*V3*V4/(4*m)*dQ^2 + 5*V4^2/(6*m)*Q^3 + 5*V4^2/(4*m)*Q*dQ^2)*dQ^2",
    4: "-V4/m^3*P^3 + (3*V1*V3+V2^2)/m^2*P + (3*V1*V4+5*V2*V3)/m^2*Q*P"
       " + (5*V3^2+8*V2*V4)/(2*m^2)*Q^2*P + 3*V3*V4/m^2*Q^3*P"
       " + 3*V4^2/(4*m^2)*Q^4*P - 3*V4/m^3*P*dP^2"
       " + ((5*V3^2+8*V2*V4)/(2*m^2)*P + 9*V3*V4/m^2*Q*P + 9*V4^2/(2*m^2)*Q^2*P"
       " + 9*V4^2/(4*m^2)*P*dQ^2)*dQ^2",
}


def test_criterion_1_classical_symbolic_reproduction():
    def body():
        pot = PolynomialPotential.symbolic(4)
        table = derivatives_classical(pot, 4)
        for order, text in EQ_50.items():
            assert table.p[order - 1] == parse_phase(text)
        avg = averaged_derivatives(table, SYM)
        for order, text in EQ_51.items():
            assert avg.p[order - 1] == parse_expression(text)

    _check(1, "classical tables and averaged equations (exact)", body, budget=5.0)


# -- C2: quantum factor-ordering results ------------------------------------

EQ_52 = {
    1: "-V1 - V2*q - (1/2)*V3*q^2 - (1/6)*V4*q^3",
    2: "-V2/m*p - V3/(2*m)*(q*p + p*q) - V4/(2*m)*q*p*q",
    3: "-V3/m^2*p^2 - V4/m^2*p*q*p + V1*V2/m + (V1*V3+V2^2)/m*q"
       " + (3*V2*V3+V1*V4)/(2*m)*q^2 + (4*V2*V4+3*V3^2)/(6*m)*q^3"
       " + 5*V3*V4/(12*m)*q^4 + V4^2/(12*m)*q^5",
    4: "-V4/m^3*p^3 + (3*V1*V3+V2^2)/m^2*p + (3*V1*V4+5*V2*V3)/(2*m^2)*(q*p + p*q)"
       " + (5*V3^2+8*V2*V4)/(2*m^2)*q*p*q + 3*V3*V4/(2*m^2)*(q^3*p + p*q^3)"
       " + 3*V4^2/(4*m^2)*q^2*p*q^2",
}


def test_criterion_2_quantum_factor_ordering():
    def body():
        pot = PolynomialPotential.symbolic(4)
        qt = derivatives_quantum(pot, 4)
        for order, text in EQ_52.items():
            assert qt.p[order - 1] == parse_weyl(text)
        classical = averaged_derivatives(derivatives_classical(pot, 4), SYM)
        quantum = averaged_derivatives(qt, SYM)
        for n in range(4):
            assert quantum.p[n] == classical.p[n]
            assert quantum.q[n] == classical.q[n]

    _check(2, "quantum tables; averages coincide through order 4 (exact)", body)


# -- C3: correction terms ----------------------------------------------------


def test_criterion_3_order5_correction_and_structure():
    def body():
        pot = PolynomialPotential.symbolic(4)
        corr = quantum_correction(pot, 5)
        # the pq2p-descended deviation: dQ^2 dP^2 * (-2/nu^2) * (V3 V4 / 2 m^3)
        v3v4 = corr.coefficient_of("V3", 1).coefficient_of("V4", 1)
        assert v3v4 == parse_expression("-dQ^2*dP^2*m^-3*nu^-2")
        # equivalently: the quantum averaged fifth derivative replaces the
        # classical 21 by 21 - 2/nu^2 on that monomial
        fifth = averaged_derivatives(derivatives_quantum(pot, 5), SYM).p[-1]
        group = fifth
        for name, power in (("V3", 1), ("V4", 1), ("dQ", 2), ("dP", 2), ("Q", 0), ("P", 0)):
            group = group.coefficient_of(name, power)
        assert group * Expr.number(2) * Expr.symbol("m") ** 3 == parse_expression("21 - 2*nu^-2")
        # structural clause: no 1/nu term at any order through 5
        for order in (1, 2, 3, 4, 5):
            profile = quantum_correction(pot, order).as_poly_in("nu")
            assert -1 not in profile
            assert all(e <= 0 for e in profile)

    _check(3, "order-5 deviation is (-2/nu^2)-scaled; no 1/nu term", body, budget=30.0)


def test_criterion_3_order3_quintic_reference_value():
    def body():
        # Reference (Moyal): the symbol of d^2p/dt^2 is f = -p V''(q)/m.  The
        # hbar^2 term of {f, H}_M is made of d3_q f d3_p H, d2_q d_p f d_q d2_p H,
        # d_q d2_p f d2_q d_p H and d3_p f d3_q H, and each factor pair has a
        # zero: d3_p H = d_q d2_p H = d2_p f = d3_p f = 0 (the higher terms
        # likewise).  So d^3p/dt^3 has the classical symbol, its average over
        # the packet's Gaussian Wigner function is the classical average, and
        # the order-3 correction is zero for every polynomial V.
        quintic = PolynomialPotential.symbolic(5)
        assert quantum_correction(quintic, 3).is_zero()

        # The engine reaches that zero by a cancellation.  Its q-left order-3
        # table carries V5/m^2 * (-(1/2) p q^2 p + hbar^2/4).  Averaged, the
        # p q^2 p piece is the classical value of -(1/2) q^2 p^2 shifted by
        # -dQ^2 dP^2/nu^2 (criterion 4), and the hbar^2/4 constant is
        # +dQ^2 dP^2/nu^2 since hbar = 2 dQ dP/nu.
        def v5_group(table):
            m2 = Expr.symbol("m", -2)
            return table.p[-1].map_coefficients(
                lambda c: c.coefficient_of("V5", 1).coefficient_of("m", -2) * m2
            )

        assert v5_group(derivatives_quantum(quintic, 3)) == parse_weyl(
            "-(1/(2*m^2))*p*q^2*p + hbar^2/(4*m^2)"
        )
        classical = v5_group(derivatives_classical(quintic, 3))
        assert classical == parse_phase("-(1/(2*m^2))*q^2*p^2")
        shift = parse_expression("dQ^2*dP^2/(m^2*nu^2)")
        reordered = expectation_quantum(SYM, parse_weyl("-(1/(2*m^2))*p*q^2*p"))
        constant = expectation_quantum(SYM, parse_weyl("hbar^2/(4*m^2)"))
        assert reordered == moment_classical(SYM, classical) - shift
        assert constant == shift
        assert reordered + constant == moment_classical(SYM, classical)

        # Control: the same call is not zero once the symbol is no longer
        # linear in p; at order 5 the V3 V4 term keeps the p q^2 p shift that
        # the order-5 test pins on the quartic.
        v3v4 = quantum_correction(quintic, 5).coefficient_of("V3", 1).coefficient_of("V4", 1)
        assert v3v4.coefficient_of("V5", 0) == parse_expression("-dQ^2*dP^2*m^-3*nu^-2")

    _check(3, "order-3 quintic correction is the Moyal zero; its two pieces cancel",
           body, budget=30.0)


# -- C4: printed moment identities -------------------------------------------


def test_criterion_4_moment_identities():
    def body():
        qp = expectation_quantum(SYM, parse_weyl("q*p"))
        assert restore_hbar(qp) == parse_expression("Q*P + (1/2)*i*hbar")
        q3p = expectation_quantum(SYM, parse_weyl("q^3*p"))
        assert q3p == parse_expression(
            "Q^3*P + 3*Q*P*dQ^2 + 3*i*Q^2*dQ*dP/nu + 3*i*dQ^3*dP/nu"
        )
        pq2p = expectation_quantum(SYM, parse_weyl("p*q^2*p"))
        classical = moment_classical(SYM, parse_phase("q^2*p^2"))
        assert pq2p - classical == parse_expression("2*dQ^2*dP^2/nu^2")
        sym_qp = expectation_quantum(SYM, parse_weyl("q*p + p*q"))
        assert sym_qp == parse_expression("2*Q*P")

    _check(4, "printed moment identities (exact)", body)


# -- C5: oracle equivalence ----------------------------------------------------


def test_criterion_5_oracle_equivalence():
    def body():
        rng = random.Random(2024)
        words = [
            "".join(rng.choice("qp") for _ in range(rng.randint(1, 6)))
            for _ in range(50)
        ]
        for nu in (1.5, 3.0, 10.0):
            packet = PacketMoments(0.6, -0.4, 1.1, nu / (2 * 1.1), hbar=1.0)
            assert packet.nu_value() == pytest.approx(nu)
            state = fock_state(packet, degree=6)
            bindings = packet.bindings()
            for word in words:
                engine = expectation_quantum(
                    packet, WeylPolynomial.from_word(word)
                ).evaluate(bindings)
                oracle = fock_expectation(state, [(1.0, word)])
                assert abs(engine - oracle) <= 1e-8 * max(abs(oracle), 1.0)
        packet = PacketMoments(0.6, -0.4, 1.1, 1.7, hbar=1.0)
        bindings = packet.bindings()
        for _ in range(50):
            a = rng.randint(0, 8)
            b = rng.randint(0, 8 - a)
            engine = moment_classical(
                packet, parse_phase("q").__class__({(a, b): Expr.number(1)})
            ).evaluate(bindings).real
            quad = gaussian_moment_numeric(packet, a, b)
            assert abs(engine - quad) <= 1e-10 * max(abs(quad), 1.0)

    _check(5, "50 random words vs Fock traces (1e-8); 50 classical vs quadrature (1e-10)",
           body, budget=120.0)


# -- C6: quadratic dynamics vs the evolution oracle -----------------------------


def test_criterion_6_quadratic_dynamics():
    def body():
        packet = PacketMoments(0.7, -0.3, 1.2, 1.5, hbar=1.0)
        harmonic = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
        state = fock_state(packet, cutoff=110)
        s0 = state_entropy(state)
        for t in np.linspace(0.0, 2 * math.pi, 9):
            evolved = fock_evolve(state, harmonic, float(t))
            numeric = state_moments(evolved)
            exact = evolve_quadratic(packet, harmonic, float(t))
            for name in ("Q", "P", "dQ", "dP"):
                assert float(getattr(numeric, name)) == pytest.approx(
                    float(getattr(exact, name)), abs=1e-8
                )
            assert abs(state_entropy(evolved) - s0) < 1e-9
        free = PolynomialPotential(1.0, (0.0,))
        packet2 = PacketMoments(0.0, 0.2, 1.0, 1.0, hbar=1.0)
        state2 = fock_state(packet2, cutoff=170)  # the spread state at t=2 fills more bands
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            numeric = state_moments(fock_evolve(state2, free, t))
            exact = evolve_quadratic(packet2, free, t)
            for name in ("Q", "P", "dQ", "dP"):
                assert float(getattr(numeric, name)) == pytest.approx(
                    float(getattr(exact, name)), abs=1e-8
                )

    _check(6, "harmonic period + free spreading match Fock evolution (1e-8)", body)


# -- C7: entropy and weights -----------------------------------------------------


def test_criterion_7_entropy_and_weights():
    def body():
        for nu in (2.0, 5.0, 20.0):
            assert entropy_weight_sum(nu) == pytest.approx(entropy_quantum(nu), abs=1e-9)
        assert entropy_quantum(1.0) == 0.0
        nu = 1e3
        asymptote = math.log(nu) + 1 - math.log(2)
        assert abs(entropy_quantum(nu) - asymptote) / asymptote < 0.01
        from fractions import Fraction

        for nu_exact in (Fraction(3), Fraction(9, 4)):
            n = 60
            partial = sum(fock_weight(nu_exact, k) for k in range(n + 1))
            tail = ((nu_exact - 1) / (nu_exact + 1)) ** (n + 1)
            assert partial + tail == 1

    _check(7, "entropy sum (1e-9), S(1)=0, asymptote (1%), exact normalization", body)


# -- C8: classical limit -----------------------------------------------------------


def test_criterion_8_classical_limit(tmp_path):
    def body():
        lam = [Expr.symbol(f"lam{i}") for i in (1, 2, 3, 4)]
        z_quantum = partition_quantum(QuantumMultipliers(*lam))
        v_h = Expr.number(2) * Expr.symbol("pi") * Expr.symbol("hbar")
        z_classical = partition_classical(ClassicalMultipliers.symbols(volume=v_h))
        assert z_quantum.leading_small_hbar() == z_classical

        nu = 1e6
        factor = log_ratio_factor().evaluate(
            {"nu": nu, "Lnu": math.log((nu + 1) / (nu - 1))}
        ).real
        assert abs(factor - 1.0) < 1e-6

        from mepack.cli import main

        scenario = {
            "packet": {"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 0.1},
            "potential": {"m": 1, "V": [0, 0, 0, 1, 1]},
            "run": {"mode": "limit-sweep", "order": 5, "nu_sweep": [10, 20, 40]},
            "output": {"dir": str(tmp_path / "sweep")},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 0
        payload = json.loads((tmp_path / "sweep" / "results.json").read_text())
        assert abs(payload["correction_slope"] - (-2.0)) < 0.01

    _check(8, "partition leading term, multiplier limit (1e-6), sweep slope -2 (0.01)", body)


# -- C9: constraint closure and stationarity ----------------------------------------


def test_criterion_9_constraint_closure():
    def body():
        Q, P = Expr.symbol("Q"), Expr.symbol("P")
        q2 = parse_expression("Q^2 + dQ^2")
        p2 = parse_expression("P^2 + dP^2")
        assert moment_classical(SYM, parse_phase("q")) == Q
        assert moment_classical(SYM, parse_phase("p")) == P
        assert moment_classical(SYM, parse_phase("q^2")) == q2
        assert moment_classical(SYM, parse_phase("p^2")) == p2
        assert expectation_quantum(SYM, parse_weyl("q")) == Q
        assert expectation_quantum(SYM, parse_weyl("p")) == P
        assert expectation_quantum(SYM, parse_weyl("q^2")) == q2
        assert expectation_quantum(SYM, parse_weyl("p^2")) == p2
        assert stationarity_defect(solve_multipliers_classical(SYM)).is_zero()
        assert stationarity_defect(solve_multipliers_quantum(SYM)).is_zero()

    _check(9, "both packets reproduce their constraints; lam1 + 2 lam3 Q = 0", body)
