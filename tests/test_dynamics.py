"""Quadratic flows, derivative tables, averaged equations, corrections,
and Taylor propagation."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack import dynamics
from mepack.algebra import (
    Expr,
    PhasePolynomial,
    WeylPolynomial,
    commutator,
    parse_expression,
    parse_phase,
    parse_weyl,
    poisson_bracket,
)
from mepack.classical import moment_classical
from mepack.dynamics import (
    PolynomialPotential,
    averaged_derivatives,
    averaged_p_derivatives,
    derivatives_classical,
    derivatives_quantum,
    evolve_quadratic,
    hamiltonian,
    propagate,
    quadratic_flow,
    quantum_correction,
    trajectory_quadratic,
)
from mepack.errors import DomainError, HorizonError
from mepack.oracle import fock_evolve, fock_expectation, fock_state, state_moments
from mepack.packets import PacketMoments
from mepack.quantum import expectation_quantum, tail_levels

# the printed closed forms for a quartic truncation (degree K = 4)
EQ_DP = {
    1: "-V1 - V2*q - (1/2)*V3*q^2 - (1/6)*V4*q^3",
    2: "-V2/m*p - V3/m*q*p - V4/(2*m)*q^2*p",
    3: "-V3/m^2*p^2 - V4/m^2*q*p^2 + V1*V2/m + (V1*V3+V2^2)/m*q"
       " + (3*V2*V3+V1*V4)/(2*m)*q^2 + (4*V2*V4+3*V3^2)/(6*m)*q^3"
       " + 5*V3*V4/(12*m)*q^4 + V4^2/(12*m)*q^5",
    4: "-V4/m^3*p^3 + (3*V1*V3+V2^2)/m^2*p + (3*V1*V4+5*V2*V3)/m^2*q*p"
       " + (5*V3^2+8*V2*V4)/(2*m^2)*q^2*p + 3*V3*V4/m^2*q^3*p"
       " + 3*V4^2/(4*m^2)*q^4*p",
}

EQ_DP_QUANTUM = {
    1: EQ_DP[1],
    2: "-V2/m*p - V3/(2*m)*(q*p + p*q) - V4/(2*m)*q*p*q",
    3: "-V3/m^2*p^2 - V4/m^2*p*q*p + V1*V2/m + (V1*V3+V2^2)/m*q"
       " + (3*V2*V3+V1*V4)/(2*m)*q^2 + (4*V2*V4+3*V3^2)/(6*m)*q^3"
       " + 5*V3*V4/(12*m)*q^4 + V4^2/(12*m)*q^5",
    4: "-V4/m^3*p^3 + (3*V1*V3+V2^2)/m^2*p + (3*V1*V4+5*V2*V3)/(2*m^2)*(q*p + p*q)"
       " + (5*V3^2+8*V2*V4)/(2*m^2)*q*p*q + 3*V3*V4/(2*m^2)*(q^3*p + p*q^3)"
       " + 3*V4^2/(4*m^2)*q^2*p*q^2",
}

EQ_AVG = {
    1: "-V1 - V2*Q - (1/2)*V3*Q^2 - (1/6)*V4*Q^3 - (V3+V4*Q)/2*dQ^2",
    # sign-corrected second order: all terms follow the first with minus signs
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


@pytest.fixture(scope="module")
def quartic():
    return PolynomialPotential.symbolic(4)


@pytest.fixture(scope="module")
def classical_table(quartic):
    return derivatives_classical(quartic, 4)


@pytest.fixture(scope="module")
def quantum_table(quartic):
    return derivatives_quantum(quartic, 4)


# ---------------------------------------------------------------------------
# derivative tables against the printed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_classical_p_derivatives(classical_table, order):
    assert classical_table.p[order - 1] == parse_phase(EQ_DP[order])


def test_q_derivatives_follow_p(classical_table):
    inv_m = parse_expression("m^-1")
    assert classical_table.q[0] == parse_phase("p/m")
    for n in range(1, 4):
        assert classical_table.q[n] == classical_table.p[n - 1] * inv_m


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quantum_p_derivatives(quantum_table, order):
    assert quantum_table.p[order - 1] == parse_weyl(EQ_DP_QUANTUM[order])


def test_order_must_be_positive(quartic):
    with pytest.raises(DomainError):
        derivatives_classical(quartic, 0)
    with pytest.raises(DomainError):
        derivatives_quantum(quartic, 0)


def test_fifth_derivative_contains_printed_commutator(quartic):
    # the q^2 p^2 - type contributions entering d^5p/dt^5
    from mepack.algebra import commutator

    lhs = commutator(parse_weyl("(3/2)*V3*V4/m^2*(q^3*p + p*q^3)"), parse_weyl("p^2/(2*m)")) \
        + commutator(parse_weyl("(1/2)*V3*V4/m^3*(1/3)*q^3"), parse_weyl("p^3"))
    assert lhs == parse_weyl("i*hbar*(1/2)*V3*V4/m^3*(21*p*q^2*p - 11*hbar^2)")


# ---------------------------------------------------------------------------
# the Moyal chain against the Weyl commutator chain
# ---------------------------------------------------------------------------

_INV_I_HBAR = Expr.number(1) / (Expr.i() * Expr.symbol("hbar"))


def walk(x0, step, order):
    """[x0, dx0/dt, ..., d^order x0/dt^order], walked afresh by `step`."""
    chain = [x0]
    for _ in range(order):
        chain.append(step(chain[-1]))
    return chain


def commutator_chain(potential, x0, order):
    """Reference Heisenberg chain X -> [X, H]/(i hbar) on q-left operators."""
    h = WeylPolynomial.from_symbol(hamiltonian(potential))

    def step(x):
        return commutator(x, h).map_coefficients(lambda c: c * _INV_I_HBAR)

    return walk(x0, step, order)[1:]


@pytest.mark.parametrize("degree", range(7))
def test_moyal_tables_match_commutator_chain(degree):
    pot = PolynomialPotential.symbolic(degree)
    qt = derivatives_quantum(pot, 8)
    assert list(qt.p) == commutator_chain(pot, WeylPolynomial.p(), 8)
    # dq/dt = p/m, so the q chain repeats the p chain one order later
    assert qt.q[0] == commutator_chain(pot, WeylPolynomial.q(), 1)[0]
    inv_m = parse_expression("m^-1")
    for n in range(1, 8):
        assert qt.q[n] == qt.p[n - 1].map_coefficients(lambda c: c * inv_m)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=20, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.lists(_RATIONALS, min_size=1, max_size=7),
    st.integers(1, 6),
)
def test_moyal_and_commutator_chains_agree_on_numeric_potentials(mass, coefficients, order):
    pot = PolynomialPotential(mass, tuple(coefficients))
    qt = derivatives_quantum(pot, order)
    assert list(qt.p) == commutator_chain(pot, WeylPolynomial.p(), order)
    assert list(qt.q) == commutator_chain(pot, WeylPolynomial.q(), order)


def test_quantum_taylor_series_matches_commutator_route():
    # the symbol averages equal the Wigner/ladder-checked operator averages
    # of the commutator chain, for every tracked observable
    pot = PolynomialPotential.symbolic(4)
    series = dynamics._taylor_series(pot, 5, "quantum")
    q, p = WeylPolynomial.q(), WeylPolynomial.p()
    half = Expr.number(Fraction(1, 2))
    observables = {
        "q": q, "p": p, "q2": q * q, "p2": p * p,
        "qp": (q * p + p * q).map_coefficients(lambda c: c * half),
    }
    sym = PacketMoments.symbolic()
    for name, x0 in observables.items():
        chain = [x0] + commutator_chain(pot, x0, 5)
        expected = [
            expectation_quantum(sym, x) * Expr.number(Fraction(1, math.factorial(n)))
            for n, x in enumerate(chain)
        ]
        assert series[name] == expected, name


def test_quantum_engine_stays_off_weyl_products(monkeypatch):
    # the symbol route never multiplies WeylPolynomials; the reference does
    def refuse(*_):
        raise AssertionError("WeylPolynomial product on the symbol route")

    monkeypatch.setattr(WeylPolynomial, "__mul__", refuse)
    monkeypatch.setattr(WeylPolynomial, "__rmul__", refuse)
    with pytest.raises(AssertionError):
        WeylPolynomial.q() * WeylPolynomial.p()
    assert not quantum_correction(PolynomialPotential.symbolic(5), 5).is_zero()
    pk = PacketMoments(0.4, 0.2, math.sqrt(0.1), math.sqrt(0.1), hbar=0.02)
    pot = PolynomialPotential(1, (0, 0, 0, Fraction(1, 2), 1))
    traj = propagate(pk, pot, [0.0, 0.1], order=6, kind="quantum")
    assert len(traj.packets) == 2


@pytest.fixture
def fresh_chains():
    """An empty chain store before and after the test: the store is keyed
    by the potential alone, so a patched step must not read chains walked
    before it, nor leave its own behind."""
    dynamics._chains.cache_clear()
    yield
    dynamics._chains.cache_clear()


def test_moyal_shadow_check_sees_a_perturbed_step(monkeypatch, fresh_chains):
    # the hbar^0 part of the Moyal chain must equal the Poisson chain
    moyal_step = dynamics._moyal_step
    nudge = PhasePolynomial.q().map_coefficients(lambda c: c * Expr.symbol("V0"))
    monkeypatch.setattr(dynamics, "_moyal_step", lambda h: (lambda x: moyal_step(h)(x) + nudge))
    with pytest.raises(AssertionError, match="Poisson chain"):
        quantum_correction(PolynomialPotential.symbolic(3), 2)


def _fresh_averaged_p(potential, order):
    """averaged_p_derivatives by fresh chain walks and two averages,
    without the memo."""
    h = hamiltonian(potential)
    x0, sym = PhasePolynomial.p(), PacketMoments.symbolic()
    quantum = walk(x0, dynamics._moyal_step(h), order)[-1]
    classical = walk(x0, dynamics._classical_step(h), order)[-1]
    return moment_classical(sym, quantum), moment_classical(sym, classical)


def test_memoized_chains_match_fresh_walks():
    pot = PolynomialPotential(Fraction(5, 3), (1, Fraction(-1, 2), 0, Fraction(2, 7), 3))
    averaged_p_derivatives(pot, 6)
    for order in range(1, 7):
        assert averaged_p_derivatives(pot, order) == _fresh_averaged_p(pot, order)


@pytest.mark.parametrize("degree", range(7))
def test_classical_average_is_the_poisson_entry_averaged(degree):
    # the nu^0 part of the one Moyal average equals the average of the
    # Poisson chain's entry, the computation it replaced
    pot = PolynomialPotential.symbolic(degree)
    step = dynamics._classical_step(hamiltonian(pot))
    poisson = walk(PhasePolynomial.p(), step, 8)
    for order in range(1, 9):
        _, classical = averaged_p_derivatives(pot, order)
        assert classical == moment_classical(PacketMoments.symbolic(), poisson[order]), order


@pytest.mark.parametrize("degree", range(3, 7))
def test_quantum_correction_has_no_nu0_term(degree):
    pot = PolynomialPotential.symbolic(degree)
    for order in range(1, 7):
        correction = quantum_correction(pot, order)
        assert correction.drop_symbol("nu").is_zero(), order
        assert all(e < 0 for e in correction.as_poly_in("nu")), order


@pytest.mark.parametrize("kind, step", [
    ("classical", "_classical_step"), ("quantum", "_moyal_step"),
])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_q_chain_read_off_p_matches_a_walked_q_chain(kind, step, degree):
    pot = PolynomialPotential.symbolic(degree)
    bracket = getattr(dynamics, step)(hamiltonian(pot))
    assert dynamics._chain(pot, kind, "q", 6) == walk(PhasePolynomial.q(), bracket, 6)


def composed_moyal_step(h):
    """The Moyal step composed from general products:
    X -> {X, H} - sum_{k>=1} term_k * d_p^(2k+1) X, with
    term_k = (-hbar^2/4)^k/(2k+1)! V^(2k+1)(q) and hbar = 2 dQ dP / nu."""
    terms = []
    dv = h.diff_q().diff_q().diff_q()
    k = 1
    while not dv.is_zero():
        weight = Expr.number(Fraction((-1) ** k, 4 ** k * math.factorial(2 * k + 1)))
        weight = weight * parse_expression("2*dQ*dP/nu") ** (2 * k)
        terms.append(dv.map_coefficients(lambda c: c * weight))
        dv = dv.diff_q().diff_q()
        k += 1

    def step(x):
        out = poisson_bracket(x, h)
        dx = x.diff_p()
        for term in terms:
            dx = dx.diff_p().diff_p()
            out = out - term * dx
        return out

    return step


def term_order(poly):
    """Keys and each coefficient's monomials in insertion order, which
    float evaluation follows."""
    return [(key, list(c._terms)) for key, c in poly._terms.items()]


@pytest.mark.parametrize("degree", range(7))
def test_one_pass_moyal_step_matches_the_composed_bracket(degree):
    h = hamiltonian(PolynomialPotential.symbolic(degree))
    step, reference = dynamics._moyal_step(h), composed_moyal_step(h)
    for name, x0 in dynamics._OBSERVABLES.items():
        for n, x in enumerate(walk(x0, reference, 7)):
            expected = reference(x)
            assert step(x) == expected, (name, n + 1)
            assert term_order(step(x)) == term_order(expected), (name, n + 1)


@pytest.mark.parametrize("degree", range(7))
def test_quantum_correction_is_the_difference_of_the_averages(degree):
    pot = PolynomialPotential.symbolic(degree)
    for order in range(1, 9):
        quantum, classical = averaged_p_derivatives(pot, order)
        assert quantum_correction(pot, order) == quantum - classical, order


def count_steps(monkeypatch):
    """A list that grows by one on each Moyal or Poisson chain step."""
    calls = []
    for name in ("_moyal_step", "_classical_step"):
        factory = getattr(dynamics, name)

        def counted(h, factory=factory):
            step = factory(h)

            def counted_step(x):
                calls.append(1)
                return step(x)

            return counted_step

        monkeypatch.setattr(dynamics, name, counted)
    return calls


def test_each_chain_step_runs_once_per_potential(monkeypatch, fresh_chains):
    calls = count_steps(monkeypatch)
    pot = PolynomialPotential(Fraction(7, 4), (Fraction(3, 8), 0, Fraction(-5, 8), 0, 1, 2))
    for order in range(1, 7):
        quantum_correction(pot, order)
    assert len(calls) == 12  # 6 Moyal + 6 Poisson steps


def test_equal_potentials_share_one_chain_memo_entry():
    plain = PolynomialPotential(1, (0, 0, Fraction(1, 3)))
    wrapped = PolynomialPotential(Expr.number(1), (Expr(), 0, Expr.number(Fraction(1, 3))))
    assert plain == wrapped and hash(plain) == hash(wrapped)
    dynamics._chains.cache_clear()
    assert quantum_correction(plain, 2) == quantum_correction(wrapped, 2)
    info = dynamics._chains.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_one_chain_store_serves_every_caller(monkeypatch, fresh_chains):
    calls = count_steps(monkeypatch)
    pot = PolynomialPotential(Fraction(5, 4), (0, Fraction(1, 8), Fraction(3, 4), 0, Fraction(1, 2)))
    quantum_correction(pot, 6)
    assert len(calls) == 12  # the Moyal and the Poisson p chains
    derivatives_quantum(pot, 6)
    derivatives_classical(pot, 6)
    assert len(calls) == 12  # the tables read the same p chains
    pk = PacketMoments(0.4, 0.2, 1, 1, hbar=1)
    propagate(pk, pot, [0.0, 0.01], order=6, kind="quantum")
    assert len(calls) == 12 + 3 * 6  # only the q2, p2 and qp chains are new


def test_moyal_chains_carry_no_hbar():
    # hbar is written as 2 dQ dP / nu once, in the Moyal weights
    pot = PolynomialPotential.symbolic(6)
    step = dynamics._moyal_step(hamiltonian(pot))
    x0s = [PhasePolynomial.q(), PhasePolynomial.p(), parse_phase("q^2"), parse_phase("q*p")]
    symbols = set()
    for x0 in x0s:
        for entry in walk(x0, step, 6):
            symbols |= set().union(*(c.symbols() for _, c in entry.terms()))
    assert "hbar" not in symbols and {"nu", "dQ", "dP"} <= symbols


def test_constant_expr_mass_must_be_positive():
    for mass in (Expr.number(-1), Expr()):
        with pytest.raises(DomainError, match="mass must be positive"):
            PolynomialPotential(mass, (0, 0, 1))
    with pytest.raises(DomainError, match="mass must be positive, got -2"):
        PolynomialPotential(-2, (0, 0, 1))
    for mass, coefficients in ((math.inf, (0,)), (1, (0, math.nan))):
        with pytest.raises(DomainError, match="finite"):
            PolynomialPotential(mass, coefficients)


def test_complex_potential_coefficients_are_rejected():
    for coefficients in ((0, 0, 1 + 1j), (Expr.i(),), (0, Expr.number(2) * Expr.i())):
        with pytest.raises(DomainError, match="potential coefficients must be real"):
            PolynomialPotential(1, coefficients)
    # a symbolic coefficient is no constant, so it stays allowed
    assert not PolynomialPotential(1, (0, Expr.i() * Expr.symbol("V1"))).is_numeric


def test_constant_expr_potential_is_numeric():
    pot = PolynomialPotential(Expr.number(2), (Expr.number(Fraction(1, 2)), Expr(), 0.1))
    assert pot.is_numeric and pot.effective_degree() == 2
    assert (pot.mass_value(), pot.coefficient(0), pot.coefficient(1)) == (2.0, 0.5, 0.0)
    assert pot.coefficient(2) == 0.1 and pot.coefficient(7) == 0.0
    assert not PolynomialPotential.symbolic(2).is_numeric
    with pytest.raises(DomainError, match="symbolic potential"):
        PolynomialPotential.symbolic(2).coefficient(1)


# ---------------------------------------------------------------------------
# averaged equations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_classical_averaged_equations(classical_table, sym_packet, order):
    avg = averaged_derivatives(classical_table, sym_packet)
    assert avg.p[order - 1] == parse_expression(EQ_AVG[order])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quantum_averages_coincide_with_classical(
    classical_table, quantum_table, sym_packet, order
):
    classical = averaged_derivatives(classical_table, sym_packet)
    quantum = averaged_derivatives(quantum_table, sym_packet)
    assert quantum.p[order - 1] == classical.p[order - 1]
    assert quantum.q[order - 1] == classical.q[order - 1]


def test_sharp_limit_recovers_pointlike_equations(classical_table, sym_packet):
    # dQ -> 0, dP -> 0 with q -> Q, p -> P reproduces the phase-space equations
    avg = averaged_derivatives(classical_table, sym_packet)
    for n in range(4):
        sharp = avg.p[n].substitute({"dQ": Expr(), "dP": Expr()})
        expected = Expr()
        for (a, b), c in classical_table.p[n].terms():
            expected = expected + c * Expr.symbol("Q") ** a * Expr.symbol("P") ** b
        assert sharp == expected


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_factor_ordering_shadow(degree):
    # dropping hbar from the quantum table entries gives the classical table
    pot = PolynomialPotential.symbolic(degree)
    ct = derivatives_classical(pot, 5)
    qt = derivatives_quantum(pot, 5)
    for n in range(5):
        shadow = qt.p[n].map_coefficients(lambda c: c.drop_symbol("hbar")).classical()
        assert shadow == ct.p[n]


@pytest.mark.parametrize("degree", [4, 5])
def test_averaged_quantum_derivatives_are_real(degree, sym_packet):
    qt = derivatives_quantum(PolynomialPotential.symbolic(degree), 5)
    avg = averaged_derivatives(qt, sym_packet)
    for e in avg.p:
        assert e == e.conjugate()


# ---------------------------------------------------------------------------
# quantum corrections
# ---------------------------------------------------------------------------


def test_corrections_vanish_through_fourth_order(quartic):
    for order in (1, 2, 3, 4):
        assert quantum_correction(quartic, order).is_zero()


def test_order5_v3v4_component(quartic):
    corr = quantum_correction(quartic, 5)
    v3v4 = corr.coefficient_of("V3", 1).coefficient_of("V4", 1)
    assert v3v4 == parse_expression("-dQ^2*dP^2/(m^3*nu^2)").coefficient_of("V3", 0)


def test_order5_correction_is_second_order_in_inverse_nu(quartic):
    profile = quantum_correction(quartic, 5).as_poly_in("nu")
    assert set(profile) == {-2}
    assert -1 not in profile


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_corrections_have_no_first_order_term(degree):
    # corrections are O(1/nu^2) for every truncation degree and order <= 5
    pot = PolynomialPotential.symbolic(degree)
    for order in range(1, 6):
        profile = quantum_correction(pot, order).as_poly_in("nu")
        assert -1 not in profile
        assert all(e <= -2 for e in profile)


def test_order5_21_minus_2_over_nu2_factor(quartic, sym_packet):
    fifth = averaged_derivatives(derivatives_quantum(quartic, 5), sym_packet).p[-1]
    group = fifth
    for name, power in (("V3", 1), ("V4", 1), ("dQ", 2), ("dP", 2), ("Q", 0), ("P", 0)):
        group = group.coefficient_of(name, power)
    assert group * Expr.number(2) * Expr.symbol("m") ** 3 == parse_expression("21 - 2*nu^-2")


def test_order3_quintic_correction_is_zero_and_oracle_agrees():
    # The third-derivative V5 commutator is [.,p^2/2m] of a symmetrized q^3 p
    # term; its hbar^2 piece exactly cancels the pq2p reordering shift, so the
    # net correction vanishes.  The independent Fock oracle confirms.
    quintic = PolynomialPotential.symbolic(5)
    assert quantum_correction(quintic, 3).is_zero()

    pk = PacketMoments(0.4, 0.1, 1.1, 1.3, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0, 0.0, 0.0, 0.0, 0.0, 0.8))
    table = derivatives_quantum(pot, 3)
    state = fock_state(pk, degree=table.p[-1].degree())
    oracle = fock_expectation(state, table.p[-1])
    classical = averaged_derivatives(derivatives_classical(pot, 3), pk).p[-1]
    classical_value = classical.evaluate(pk.bindings()).real
    assert oracle.imag == pytest.approx(0.0, abs=1e-10)
    assert oracle.real == pytest.approx(classical_value, rel=1e-10)


def test_order5_quartic_correction_matches_the_fock_trace_at_nu_10():
    # away from nu ~ 3 the correction is small next to the average: the Fock
    # trace of the exact order-5 operator minus the classical average must
    # resolve it to 1e-5 of itself, a bound the classical average misses
    pk = PacketMoments(0, 0, 1, 1, hbar=Fraction(1, 5))
    assert pk.nu == 10
    pot = PolynomialPotential(1, (0, 0, 1, Fraction(1, 2), 1))
    operator = derivatives_quantum(pot, 5).p[-1]
    oracle = fock_expectation(fock_state(pk, degree=operator.degree()), operator)
    classical = averaged_derivatives(derivatives_classical(pot, 5), pk).p[-1].evaluate({}).real
    correction = pk.specialize(quantum_correction(pot, 5)).evaluate({}).real
    bound = 1e-5 * abs(correction)
    assert oracle.imag == pytest.approx(0.0, abs=1e-10)
    assert abs(oracle.real - classical - correction) < bound
    assert abs(oracle.real - classical) > bound


@pytest.mark.parametrize("nu", [100, 1000])
def test_order5_quartic_correction_matches_the_fock_trace_where_it_is_small(nu):
    # the O(hbar^k) cancellation happens in exact arithmetic, so the float
    # trace of the 15 q-left words resolves the correction to 1e-12 of the
    # total, once the cutoff drops a weight tail of 1e-20 only; a cutoff set
    # by a 1e-12 weight tail alone misses it by 5% at nu = 1000
    pk = PacketMoments(0, 0, 1, 1, hbar=Fraction(2, nu))
    pot = PolynomialPotential(1, (0, 0, 1, Fraction(1, 2), 1))
    operator = derivatives_quantum(pot, 5).p[-1]
    assert len(operator.terms()) == 15
    state = fock_state(pk, cutoff=tail_levels(nu, 1e-20) + 16)
    total = fock_expectation(state, operator)
    classical = averaged_derivatives(derivatives_classical(pot, 5), pk).p[-1].evaluate({}).real
    correction = pk.specialize(quantum_correction(pot, 5)).evaluate({}).real
    assert correction == pytest.approx(-1 / (2 * nu ** 2), rel=1e-12)
    bound = 1e-12 * abs(total)
    assert total.imag == pytest.approx(0.0, abs=bound)
    assert abs(total.real - classical - correction) <= bound
    assert abs(total.real - classical) > bound


def test_quintic_corrections_through_fourth_order_vanish():
    quintic = PolynomialPotential.symbolic(5)
    for order in (1, 2, 4):
        assert quantum_correction(quintic, order).is_zero()


def test_quantum_averages_on_a_numeric_packet_are_numbers():
    # a numeric packet fixes Q, P, dQ, dP and nu, so both tables average to
    # numbers; they agree through order 4 and differ by the correction at 5
    pk = PacketMoments(0.4, 0.1, 1.1, 1.3, hbar=1.0)
    pot = PolynomialPotential(1, (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2)))
    quantum = averaged_derivatives(derivatives_quantum(pot, 5), pk)
    classical = averaged_derivatives(derivatives_classical(pot, 5), pk)
    assert all(e.is_constant() for e in quantum.q + quantum.p)
    assert quantum.q[:4] == classical.q[:4]
    assert quantum.p[:4] == classical.p[:4]
    correction = pk.specialize(quantum_correction(pot, 5))
    assert not correction.is_zero()
    assert quantum.p[4] - classical.p[4] == correction


def test_numeric_packet_correction_evaluates(quartic):
    pk = PacketMoments(0.5, -0.25, 1.0, 1.5, hbar=1.0)
    corr = pk.specialize(quantum_correction(quartic, 5))
    b = {"m": 1.0, "V3": 1.0, "V4": 1.0}
    value = corr.evaluate(b).real
    nu = pk.nu_value()
    expected = -(1.0 * 1.0 + 1.0 * 1.0 * 0.5) * 1.0 ** 2 * 1.5 ** 2 / nu ** 2
    assert value == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# quadratic flows and closed-form evolution
# ---------------------------------------------------------------------------


def test_flow_initial_conditions():
    pot = PolynomialPotential(2.0, (0.3, 1.5, 0.7))
    f = quadratic_flow(pot, 0.0)
    assert (f.f0, f.f2, f.g0, f.g1) == (0.0, 0.0, 0.0, 0.0)
    assert (f.f1, f.g2) == (1.0, 1.0)


def test_flow_oscillatory_branch():
    m, v2 = 1.5, 2.0
    pot = PolynomialPotential(m, (0.0, 0.0, v2))
    t = 0.8
    f = quadratic_flow(pot, t)
    omega, xi = math.sqrt(v2 / m), math.sqrt(m * v2)
    assert f.branch == "oscillatory"
    assert f.f1 == pytest.approx(math.cos(omega * t))
    assert f.f2 == pytest.approx(math.sin(omega * t) / xi)
    assert f.g1 == pytest.approx(-xi * math.sin(omega * t))


def test_flow_uniform_branch():
    pot = PolynomialPotential(2.0, (0.0, 3.0))
    f = quadratic_flow(pot, 0.5)
    assert f.branch == "uniform"
    assert f.f2 == pytest.approx(0.25)    # t/m
    assert f.g0 == pytest.approx(-1.5)    # -V1 t
    assert f.f0 == pytest.approx(-3.0 * 0.5 ** 2 / (2.0 * 2.0))  # -V1 t^2 / 2m


def test_flow_hyperbolic_branch_solves_equations_of_motion():
    m, v1, v2 = 1.3, 0.4, -0.9
    pot = PolynomialPotential(m, (0.0, v1, v2))
    t, h = 0.7, 1e-6
    f, fp, fm = (quadratic_flow(pot, s) for s in (t, t + h, t - h))
    assert f.branch == "hyperbolic"
    for q0, p0 in ((1.0, 0.0), (0.0, 1.0), (0.3, -0.8)):
        def q_at(fl):
            return fl.f0 + q0 * fl.f1 + p0 * fl.f2

        def p_at(fl):
            return fl.g0 + q0 * fl.g1 + p0 * fl.g2

        qdot = (q_at(fp) - q_at(fm)) / (2 * h)
        pdot = (p_at(fp) - p_at(fm)) / (2 * h)
        assert qdot == pytest.approx(p_at(f) / m, rel=1e-6)
        assert pdot == pytest.approx(-v1 - v2 * q_at(f), rel=1e-6)


def test_flow_rejects_cubic():
    with pytest.raises(DomainError):
        quadratic_flow(PolynomialPotential(1.0, (0.0, 0.0, 0.0, 1.0)), 0.1)


def test_flow_past_float_range_is_a_horizon_error():
    # cosh(omega t) leaves float range from about omega t = 710
    with pytest.raises(HorizonError, match="flow leaves float range at t = 800.0$"):
        quadratic_flow(PolynomialPotential(1, (0, 0, -1)), 800)


@pytest.mark.parametrize("mode", ["taylor-origin", "repacketized-stepping"])
@pytest.mark.parametrize("v4, t, at", [
    # a series coefficient overflows: at the origin, or in the step to t
    (1e300, 0.1, {"taylor-origin": 0.0, "repacketized-stepping": 0.1}),
    (1, 1e60, None),  # the sums reach inf without an OverflowError
    (1, 1e300, None),  # a power of t overflows
], ids=["coefficient", "sum", "power"])
def test_a_taylor_series_past_float_range_is_a_horizon_error(mode, v4, t, at):
    pk = PacketMoments(0.5, 0.0, 1.0, 1.0, hbar=1.0)
    pot = PolynomialPotential(1, (0, 0, 0, 0, v4))
    message = f"Taylor series leaves float range at t = {at[mode] if at else t}"
    with pytest.raises(HorizonError, match=f"^{re.escape(message)}$"):
        propagate(pk, pot, [0, t], order=4, mode=mode, kind="quantum")


_FINITE_TIME = "evolution time must be finite, got t = "


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_closed_form_evolution_refuses_a_non_finite_time(t):
    pk = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
    pot = PolynomialPotential(1, (0, 0, 1))
    for call in (lambda: quadratic_flow(pot, t), lambda: evolve_quadratic(pk, pot, t)):
        with pytest.raises(DomainError, match=f"{_FINITE_TIME}{t}$"):
            call()


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_a_grid_with_a_non_finite_time_is_refused(numeric_packet, t):
    pot = PolynomialPotential(1, (0, 0, 1))
    for call in (
        lambda: trajectory_quadratic(numeric_packet, pot, [0, t]),
        lambda: propagate(numeric_packet, pot, [0, t], order=4),
    ):
        with pytest.raises(DomainError, match=f"{_FINITE_TIME}{t}$"):
            call()


@pytest.mark.parametrize("build", [
    trajectory_quadratic,
    lambda pk, pot, grid, kind: propagate(pk, pot, grid, order=4, kind=kind),
], ids=["trajectory_quadratic", "propagate"])
def test_an_unknown_packet_kind_is_refused(numeric_packet, build):
    pot = PolynomialPotential(1, (0, 0, 1))
    with pytest.raises(DomainError, match="unknown packet kind 'Quantum'"):
        build(numeric_packet, pot, [0, 0.5], kind="Quantum")


def test_evolve_free_particle_spreading():
    pk = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0,))
    out = evolve_quadratic(pk, pot, 1.0)
    assert float(out.dQ) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert float(out.dP) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("t", [360.0, 400.0, 720.0])
def test_inverted_oscillator_overflow_is_a_horizon_error(t):
    # the variance squares overflow from about t = 355, cosh and sinh from
    # about t = 710; either way the error names t
    pk = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
    pot = PolynomialPotential(1, (0, 0, -1))
    assert float(evolve_quadratic(pk, pot, 300.0).dQ) > 1e129
    with pytest.raises(HorizonError, match=f"float range at t = {t}$"):
        evolve_quadratic(pk, pot, t)
    # a finite product that rounds to inf is caught as well
    with pytest.raises(HorizonError):
        evolve_quadratic(pk.with_moments(Q=1e300), pot, 300.0)


def test_evolve_identity_at_t0(numeric_packet):
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    out = evolve_quadratic(numeric_packet, pot, 0.0)
    for name in ("Q", "P", "dQ", "dP"):
        assert float(getattr(out, name)) == pytest.approx(float(getattr(numeric_packet, name)))


def test_evolve_harmonic_variances_bounded():
    pk = PacketMoments(1.0, 0.0, 2.0, 0.5, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    for t in np.linspace(0, 20, 81):
        out = evolve_quadratic(pk, pot, float(t))
        dq = float(out.dQ)
        assert dq == pytest.approx(
            math.sqrt(math.cos(t) ** 2 * 4.0 + math.sin(t) ** 2 * 0.25), rel=1e-9
        )
        assert 0.5 - 1e-9 <= dq <= 2.0 + 1e-9


def test_variance_derivative_at_origin_nonnegative():
    pk = PacketMoments(0.3, -0.2, 1.1, 0.9, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0, 0.5, 2.0))
    h = 1e-6
    hi = float(evolve_quadratic(pk, pot, h).dQ) ** 2
    lo = float(evolve_quadratic(pk, pot, -h).dQ) ** 2
    assert (hi - lo) / (2 * h) >= -1e-8


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_trivial_at_origin(numeric_packet):
    pot = PolynomialPotential(1.0, (0.0, 0.0, 0.0, 0.6))
    for mode in ("taylor-origin", "repacketized-stepping"):
        traj = propagate(numeric_packet, pot, [0.0], order=3, mode=mode)
        row = next(traj.rows())
        assert row[1] == pytest.approx(0.7) and row[3] == pytest.approx(1.2)


def test_propagate_grid_validation(numeric_packet):
    pot = PolynomialPotential(1.0, (0.0,))
    with pytest.raises(DomainError):
        propagate(numeric_packet, pot, [0.0, 0.2, 0.1], order=4)
    with pytest.raises(DomainError):
        propagate(numeric_packet, pot, [0.1, 0.2], order=4)
    with pytest.raises(DomainError):
        propagate(numeric_packet, pot, [0.0, 0.1], order=1)
    with pytest.raises(DomainError):
        propagate(numeric_packet, pot, [0.0, 0.1], order=4, mode="leapfrog")


def test_taylor_moments_that_lose_positivity_are_refused():
    packet = PacketMoments(0, 0, 1, 0.5, hbar=1)
    with pytest.raises(DomainError, match="lost positivity"):
        propagate(packet, PolynomialPotential(1, (0, 0, 1)), [0, 2], order=2, kind="quantum")


def test_negative_potential_coefficient_index_is_refused():
    pot = PolynomialPotential(1, (0, 0, 5))
    assert pot.coefficient(2) == 5.0 and pot.coefficient(3) == 0.0
    with pytest.raises(DomainError, match="index"):
        pot.coefficient(-1)


def test_taylor_matches_quadratic_closed_form():
    pk = PacketMoments(1.0, 0.0, 1.0, 0.5, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0, 0.3, 1.0))
    grid = [0.0, 0.025, 0.05, 0.075, 0.1]
    traj = propagate(pk, pot, grid, order=6, mode="taylor-origin")
    for t, row in zip(grid, traj.rows()):
        exact = evolve_quadratic(pk, pot, t)
        assert row[1] == pytest.approx(float(exact.Q), abs=1e-8)
        assert row[2] == pytest.approx(float(exact.P), abs=1e-8)
        assert row[3] == pytest.approx(float(exact.dQ), abs=1e-8)
        assert row[4] == pytest.approx(float(exact.dP), abs=1e-8)


def test_repacketized_stepping_tracks_quadratic():
    pk = PacketMoments(1.0, 0.0, 1.0, 0.5, hbar=1.0)
    pot = PolynomialPotential(1.0, (0.0, 0.3, 1.0))
    grid = [0.0, 0.05, 0.1, 0.15, 0.2]
    traj = propagate(pk, pot, grid, order=6, mode="repacketized-stepping")
    exact = evolve_quadratic(pk, pot, 0.2)
    last = list(traj.rows())[-1]
    assert last[1] == pytest.approx(float(exact.Q), abs=1e-6)
    assert traj.provenance == "repacketized-stepping"


def test_quartic_quantum_taylor_matches_fock_oracle():
    # nu = 10 via hbar = 0.02; horizon where the remainder proxy < 1e-6
    pk = PacketMoments(0.4, 0.2, math.sqrt(0.1), math.sqrt(0.1), hbar=0.02)
    assert pk.nu_value() == pytest.approx(10.0)
    pot = PolynomialPotential(1.0, (0.0, 0.0, 0.0, 0.0, 1.0))
    grid = [0.0, 0.1, 0.2, 0.3]
    traj = propagate(pk, pot, grid, order=6, kind="quantum")
    assert traj.remainder_estimate < 1e-6
    state = fock_state(pk, degree=4, cutoff=220)
    for t, row in zip(grid, traj.rows()):
        moments = state_moments(fock_evolve(state, pot, t, leak_tol=1e-6))
        assert row[1] == pytest.approx(float(moments.Q), rel=1e-4)
        assert row[2] == pytest.approx(float(moments.P), rel=1e-4)


def test_trajectory_quadratic_entropy_constant_for_harmonic_matched_packet():
    # dQ = dP/xi keeps dQ dP constant under the harmonic flow
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    pk = PacketMoments(1.0, 0.0, 1.3, 1.3, hbar=1.0)
    traj = trajectory_quadratic(pk, pot, [0.0, 0.5, 1.0, 1.5], kind="quantum")
    assert max(traj.nus) - min(traj.nus) < 1e-12
    assert max(traj.entropies) - min(traj.entropies) < 1e-12


def test_trajectory_records_nu_drift_for_unmatched_packet():
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    pk = PacketMoments(1.0, 0.0, 2.0, 0.5, hbar=1.0)
    traj = trajectory_quadratic(pk, pot, [0.0, 0.4, 0.8], kind="quantum")
    assert traj.nus[0] == pytest.approx(2.0)
    assert max(traj.nus) > min(traj.nus)
