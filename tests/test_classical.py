"""Classical ME packets: multipliers, partition function, moments, entropy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mepack.algebra import Expr, PhasePolynomial, parse_expression, parse_phase
from mepack.classical import (
    ClassicalMultipliers,
    density_at,
    entropy_classical,
    moment_classical,
    moment_monomial_classical,
    partition_classical,
    solve_multipliers_classical,
)
from mepack.errors import DomainError
from mepack.oracle import gaussian_moment_numeric
from mepack.packets import PacketMoments
from mepack.partition import GaussianPartition


def test_multipliers_symbolic(sym_packet):
    mult = solve_multipliers_classical(sym_packet)
    assert mult.lam1 == parse_expression("-Q/dQ^2")
    assert mult.lam2 == parse_expression("-P/dP^2")
    assert mult.lam3 == parse_expression("1/(2*dQ^2)")
    assert mult.lam4 == parse_expression("1/(2*dP^2)")


def test_multipliers_centered_packet():
    mult = solve_multipliers_classical(PacketMoments(0, 0, 1, 1))
    assert mult.lam1.is_zero() and mult.lam2.is_zero()


def test_multipliers_numeric_example():
    mult = solve_multipliers_classical(PacketMoments(2, -1, 1, Fraction(1, 2)))
    assert mult.lam1 == Expr.number(-2)
    assert mult.lam2 == Expr.number(4)
    assert mult.lam3 == Expr.number(Fraction(1, 2))
    assert mult.lam4 == Expr.number(2)


def test_multipliers_solve_constraint_equations():
    # the closed forms must solve d(ln Z)/d(lam_i) = -constraint_i; check by
    # central finite differences of the log partition function
    b = {"Q": 2.0, "P": -1.0, "dQ": 1.0, "dP": 0.5}
    pk = PacketMoments(b["Q"], b["P"], b["dQ"], b["dP"])
    mult = solve_multipliers_classical(pk, volume=1)
    lam = [getattr(mult, f"lam{i}").evaluate({}).real for i in (1, 2, 3, 4)]

    def log_z(ls):
        l1, l2, l3, l4 = ls
        return (
            math.log(math.pi)
            - 0.5 * math.log(l3 * l4)
            + l1 * l1 / (4 * l3)
            + l2 * l2 / (4 * l4)
        )

    expected = [
        -b["Q"],
        -b["P"],
        -(b["Q"] ** 2 + b["dQ"] ** 2),
        -(b["P"] ** 2 + b["dP"] ** 2),
    ]
    h = 1e-6
    for i in range(4):
        hi, lo = list(lam), list(lam)
        hi[i] += h
        lo[i] -= h
        grad = (log_z(hi) - log_z(lo)) / (2 * h)
        assert grad == pytest.approx(expected[i], abs=1e-5)


def test_nonpositive_variance_rejected():
    with pytest.raises(DomainError):
        PacketMoments(0, 0, -1.0, 1.0)
    with pytest.raises(DomainError):
        PacketMoments(0, 0, 1.0, 0.0)


def test_partition_symbolic_form():
    z = partition_classical(ClassicalMultipliers.symbols())
    assert z.e3 == Fraction(-1, 2) and z.e4 == Fraction(-1, 2)
    assert z.coeff == parse_expression("pi/v")
    assert z.exponent == parse_expression("lam1^2/(4*lam3) + lam2^2/(4*lam4)")


def test_partition_centered_case():
    sym = ClassicalMultipliers.symbols()
    centered = ClassicalMultipliers(Expr(), Expr(), sym.lam3, sym.lam4, sym.volume)
    z = partition_classical(centered)
    assert z.exponent.is_zero()


def test_partition_rejects_nonpositive_lam():
    sym = ClassicalMultipliers.symbols()
    bad = ClassicalMultipliers(sym.lam1, sym.lam2, Expr.number(-1), sym.lam4, sym.volume)
    with pytest.raises(DomainError):
        partition_classical(bad)


def test_partition_derivative_identities():
    z = partition_classical(ClassicalMultipliers.symbols())
    assert z.diff("lam1").diff("lam1") == GaussianPartition(
        -z.diff("lam3").coeff, z.e3, z.e4, z.exponent
    )
    assert z.diff("lam2").diff("lam2").coeff == -z.diff("lam4").coeff


def test_density_peak_and_normalization(numeric_packet):
    b = numeric_packet.bindings()
    v = 2.0 * math.pi
    peak = density_at(numeric_packet, b["Q"], b["P"], v)
    assert peak == pytest.approx(v / (2 * math.pi * b["dQ"] * b["dP"]), rel=1e-12)
    # int rho dq dp / v = 1 is checked by test_density_v_independence_of_moments


def test_density_v_independence_of_moments(numeric_packet):
    # <q> computed by quadrature against the density is independent of v,
    # and int rho dq dp / v is 1 for each v
    from numpy.polynomial.legendre import leggauss

    b = numeric_packet.bindings()
    x, w = leggauss(120)
    q_nodes = b["Q"] + 8 * b["dQ"] * x
    p_nodes = b["P"] + 8 * b["dP"] * x
    values = []
    for v in (1.0, 2 * math.pi, 10.0):
        total, norm = 0.0, 0.0
        for qi, wi in zip(q_nodes, w):
            for pj, wj in zip(p_nodes, w):
                rho = density_at(numeric_packet, qi, pj, v) / v
                total += wi * wj * rho * qi
                norm += wi * wj * rho
        assert norm * 64 * b["dQ"] * b["dP"] == pytest.approx(1.0, abs=1e-10)
        values.append(total / norm)
    assert values[0] == pytest.approx(values[1], abs=1e-10)
    assert values[1] == pytest.approx(values[2], abs=1e-10)


def test_density_symbolic_form_matches_substituted_multipliers(numeric_packet):
    # rho = exp(-lam1 q - lam2 p - lam3 q^2 - lam4 p^2)/Z with the closed-form
    # multipliers reproduces the Gaussian density
    b = numeric_packet.bindings()
    mult = solve_multipliers_classical(numeric_packet, volume=1)
    z = partition_classical(mult).evaluate({"pi": math.pi}).real
    lam = [getattr(mult, f"lam{i}").evaluate({}).real for i in (1, 2, 3, 4)]
    for q, p in ((0.0, 0.0), (1.3, -0.4), (-0.8, 2.0)):
        direct = density_at(numeric_packet, q, p, 1.0)
        boltzmann = math.exp(-lam[0] * q - lam[1] * p - lam[2] * q * q - lam[3] * p * p) / z
        assert direct == pytest.approx(boltzmann, rel=1e-12)


def test_moment_constraints(sym_packet):
    assert moment_classical(sym_packet, PhasePolynomial.q()) == parse_expression("Q")
    assert moment_classical(sym_packet, PhasePolynomial.p()) == parse_expression("P")
    assert moment_classical(sym_packet, PhasePolynomial.q(2)) == parse_expression("Q^2 + dQ^2")
    assert moment_classical(sym_packet, PhasePolynomial.p(2)) == parse_expression("P^2 + dP^2")


def test_moment_qp_and_q2p2(sym_packet):
    assert moment_classical(sym_packet, parse_phase("q*p")) == parse_expression("Q*P")
    assert moment_classical(sym_packet, parse_phase("q^2*p^2")) == parse_expression(
        "(Q^2 + dQ^2)*(P^2 + dP^2)"
    )


def test_moment_routes_agree_up_to_degree_8():
    # moment_monomial_classical asserts route (a) == route (b) internally
    for a in range(9):
        for b in range(9 - a):
            moment_monomial_classical(a, b)


def test_moment_route_check_sees_a_perturbed_partition_route(monkeypatch):
    # lam4 off by one part in a million, entering through the partition
    # route's multiplier substitution
    import mepack.classical as classical

    exact = classical.multiplier_expressions

    def perturbed():
        out = exact()
        out["lam4"] = out["lam4"] * Expr.number(Fraction(1_000_001, 1_000_000))
        return out

    monkeypatch.setattr(classical, "multiplier_expressions", perturbed)
    cached = (moment_monomial_classical,)
    for fn in cached:
        fn.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"moment routes disagree for q\^0 p\^2"):
            moment_monomial_classical(0, 2)
    finally:
        for fn in cached:
            fn.cache_clear()


def test_factorised_partition_route_matches_the_derivative_chain():
    # reference: differentiate the whole partition function a times in lam1
    # and b times in lam2, divide by Z, substitute the multipliers
    import mepack.classical as classical

    lam = [Expr.symbol(f"lam{i}") for i in (1, 2, 3, 4)]
    z = GaussianPartition.from_multipliers(*lam, Expr.symbol("v"))
    mult = classical.multiplier_expressions()
    d_lam1 = z
    for a in range(11):
        d = d_lam1
        for b in range(11 - a):
            reference = (Expr.number((-1) ** (a + b)) * d.coeff / z.coeff).substitute(mult)
            assert classical._moment_partition_route(a, b) == reference, (a, b)
            d = d.diff("lam2")
        d_lam1 = d_lam1.diff("lam1")


def test_moment_matches_quadrature_oracle(numeric_packet):
    rng = np.random.default_rng(42)
    bindings = numeric_packet.bindings()
    for _ in range(25):
        a = int(rng.integers(0, 5))
        b = int(rng.integers(0, 9 - a))
        sym = moment_classical(numeric_packet, PhasePolynomial({(a, b): Expr.number(1)}))
        assert sym.evaluate(bindings).real == pytest.approx(
            gaussian_moment_numeric(numeric_packet, a, b), rel=1e-10, abs=1e-10
        )


def test_numpy_integer_fields_specialize_exactly():
    packet = PacketMoments(np.int64(1), 0, np.int64(1), 1, hbar=1)
    assert moment_classical(packet, parse_phase("q^2")) == Expr.number(2)
    assert solve_multipliers_classical(packet).lam1 == Expr.number(-1)


def test_bounded_correction_structure():
    # <q^a p^b> - Q^a P^b has no term free of dQ and dP
    for a in range(5):
        for b in range(5):
            diff = moment_monomial_classical(a, b) - Expr.symbol("Q") ** a * Expr.symbol("P") ** b
            for mono, _ in diff.terms():
                names = {sym for sym, _ in mono}
                assert names & {"dQ", "dP"}


def test_moment_v_independence_is_structural():
    # the symbolic moments never mention the reference volume
    for a in range(4):
        for b in range(4):
            assert "v" not in moment_monomial_classical(a, b).symbols()


def test_entropy_values_and_monotonicity():
    pk = PacketMoments(0, 0, 1.0, 1.0)
    assert entropy_classical(pk, v=2 * math.pi) == pytest.approx(1.0, abs=1e-14)
    wide = PacketMoments(0, 0, 2.0, 1.0)
    assert entropy_classical(wide, v=2 * math.pi) > entropy_classical(pk, v=2 * math.pi)
    # closed form
    pk2 = PacketMoments(0.3, 1.0, 1.7, 0.6)
    for v in (1.0, 2.0, 11.0):
        assert entropy_classical(pk2, v) == pytest.approx(
            1 + math.log(2 * math.pi * 1.7 * 0.6 / v), rel=1e-14
        )


def test_entropy_default_volume_is_h():
    pk = PacketMoments(0, 0, 1.0, 1.0, hbar=2.0)
    assert entropy_classical(pk) == entropy_classical(pk, v=2 * math.pi * 2.0)


def test_entropy_matches_quadrature():
    # -int rho ln(rho) dq dp / v against the closed form
    from numpy.polynomial.legendre import leggauss

    pk = PacketMoments(0.5, -0.2, 1.1, 0.8)
    v = 2 * math.pi
    b = pk.bindings()
    x, w = leggauss(200)
    total = 0.0
    for qi, wi in zip(b["Q"] + 9 * b["dQ"] * x, w):
        for pj, wj in zip(b["P"] + 9 * b["dP"] * x, w):
            rho = density_at(pk, qi, pj, v)
            if rho > 0:
                total -= wi * wj * rho * math.log(rho) / v
    total *= 9 * b["dQ"] * 9 * b["dP"]
    assert total == pytest.approx(entropy_classical(pk, v), abs=1e-9)
