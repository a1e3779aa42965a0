"""The Fock-matrix / quadrature oracle itself."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mepack.algebra import parse_weyl
from mepack.dynamics import PolynomialPotential, evolve_quadratic
from mepack import oracle
from mepack.errors import CutoffError, DomainError, HorizonError
from mepack.oracle import (
    DEFAULT_TAIL_TOL,
    _band_product,
    _word_bands,
    _word_matrix,
    choose_cutoff,
    fock_evolve,
    fock_expectation,
    fock_state,
    gaussian_moment_numeric,
    hamiltonian_matrix,
    state_entropy,
    state_moments,
    tail_weight,
)
from mepack.packets import PacketMoments
from mepack.quantum import entropy_quantum


@pytest.fixture(scope="module")
def packet():
    return PacketMoments(0.7, -0.3, 1.2, 1.5, hbar=1.0)  # nu = 3.6


@pytest.fixture(scope="module")
def state(packet):
    return fock_state(packet, degree=6)


def test_trace_normalized(state):
    assert abs(state.trace_deficit) < 1e-12


def test_rho_hermitian_psd(state):
    assert np.allclose(state.rho, state.rho.conj().T)
    assert np.linalg.eigvalsh(state.rho).min() > -1e-15
    assert np.allclose(state.q_mat, state.q_mat.conj().T)
    assert np.allclose(state.p_mat, state.p_mat.conj().T)


def test_evolved_state_reports_leakage():
    pk = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
    st = fock_state(pk, cutoff=60)
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    evolved = fock_evolve(st, pot, 1.0)
    assert 0.0 <= evolved.leakage < 1e-8


def test_constraints(state, packet):
    b = packet.bindings()
    assert fock_expectation(state, parse_weyl("q")).real == pytest.approx(b["Q"], abs=1e-10)
    assert fock_expectation(state, parse_weyl("p")).real == pytest.approx(b["P"], abs=1e-10)
    assert fock_expectation(state, parse_weyl("q^2")).real == pytest.approx(
        b["Q"] ** 2 + b["dQ"] ** 2, rel=1e-10
    )


def test_pq2p_second_order_shift(packet):
    for nu in (2.0, 10.0):
        dq = 1.1
        dp = nu / (2 * dq)
        pk = PacketMoments(0.5, -0.4, dq, dp, hbar=1.0)
        st = fock_state(pk, degree=4)
        got = fock_expectation(st, parse_weyl("p*q^2*p")).real
        classical = (0.5 ** 2 + dq ** 2) * (0.4 ** 2 + dp ** 2)
        assert (got - classical) / classical == pytest.approx(
            2 * dq ** 2 * dp ** 2 / nu ** 2 / classical, rel=1e-8
        )


def test_word_order_matters(state):
    qp = fock_expectation(state, [(1.0, "qp")])
    pq = fock_expectation(state, [(1.0, "pq")])
    assert qp.imag == pytest.approx(0.5, abs=1e-10)
    assert pq.imag == pytest.approx(-0.5, abs=1e-10)


def test_commutator_fidelity(state):
    comm = state.q_mat @ state.p_mat - state.p_mat @ state.q_mat
    n = state.cutoff
    block = slice(0, n - 2)
    assert np.max(np.abs(comm[block, block] - 1j * np.eye(n)[block, block])) < 1e-10


def test_cutoff_policy_and_convergence(packet):
    n0 = choose_cutoff(packet.nu_value(), degree=4)
    assert tail_weight(packet.nu_value(), n0) < 1e-12
    small = fock_state(packet, cutoff=n0)
    big = fock_state(packet, cutoff=2 * n0)
    for text in ("q^2*p^2", "q^4", "p*q^2*p"):
        a = fock_expectation(small, parse_weyl(text))
        b = fock_expectation(big, parse_weyl(text))
        assert abs(a - b) < 1e-10
    assert big.trace_deficit <= small.trace_deficit + 1e-15


def test_cutoff_bounds_the_dropped_moment_at_high_degree():
    # the weight rule decides at degree 0 and for the bundled oracle_check
    # (52 levels, where the moment bound alone asks for 51); the moment bound
    # decides for high degrees and large nu
    assert choose_cutoff(2 * 1.1 * 1.5, 4) == 52
    assert [choose_cutoff(nu) for nu in (3.6, 50.0, 1000.0)] == [
        choose_cutoff(nu, 1) for nu in (3.6, 50.0, 1000.0)] == [56, 698, 13823]
    assert [choose_cutoff(1000.0, 4), choose_cutoff(1000.0, 8), choose_cutoff(50.0, 12),
            choose_cutoff(50.0, 16), choose_cutoff(12.0, 6)] == [15903, 20770, 1302, 1580, 220]


def test_cutoff_errors(packet):
    with pytest.raises(CutoffError):
        fock_state(packet, cutoff=5)
    st = fock_state(packet, degree=0)
    with pytest.raises(CutoffError):
        fock_expectation(st, parse_weyl("q^12*p^12"))


def test_cutoff_check_counts_the_dropped_level():
    # an n-level basis keeps levels 0..n-1 and drops x^n = 2^-n at nu = 3
    nu3 = PacketMoments(0, 0, 1, Fraction(3, 2), hbar=1)
    with pytest.raises(CutoffError):
        fock_state(nu3, cutoff=39)
    state = fock_state(nu3, cutoff=40)
    assert state.trace_deficit <= DEFAULT_TAIL_TOL


def test_exact_minimal_packet_with_float_nu_below_one():
    # exact nu = 1, but the float product in bindings() rounds to 1 - 2^-52
    from mepack.cli import ORACLE_CHECK_BOUND
    from mepack.quantum import expectation_value

    pk = PacketMoments(0, 0, Fraction(137, 341), Fraction(53537, 70418), hbar=Fraction(157, 257))
    assert pk.nu == 1 and pk.bindings()["nu"] < 1
    state = fock_state(pk, degree=2)
    assert state.weights[0] == 1 and not state.weights[1:].any()
    for text in ("q^2", "p^2", "q*p"):
        op = parse_weyl(text)
        oracle = fock_expectation(state, op)
        delta = abs(expectation_value(pk, op) - oracle) / max(abs(oracle), 1.0)
        assert delta <= ORACLE_CHECK_BOUND, text


@pytest.mark.parametrize("text", ["p*q^2*p", "q^3*p"])
def test_oracle_reaches_nu_1000(text):
    # 15,903 levels for degree 4: the trace reads each word's bands block by block
    from mepack.cli import ORACLE_CHECK_BOUND
    from mepack.quantum import expectation_value

    pk = PacketMoments(0.0, 0.0, 10.0, 50.0, hbar=1.0)
    op = parse_weyl(text)
    state = fock_state(pk, degree=op.degree())
    assert state.cutoff == 15903
    got = fock_expectation(state, op)
    assert abs(expectation_value(pk, op) - got) / max(abs(got), 1.0) <= ORACLE_CHECK_BOUND


def test_oversized_cutoff_fails_before_allocating():
    # nu = 1000 needs 13,823 levels, about 3 GB per dense complex matrix;
    # the fresh state holds bands only, and evolution refuses the dense work
    pk = PacketMoments(0.0, 0.0, 10.0, 50.0, hbar=1.0)
    assert choose_cutoff(pk.nu_value()) == 13823
    state = fock_state(pk)
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    for call in (lambda: fock_evolve(state, pot, 0.1), lambda: state.rho):
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="MiB per dense matrix"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_oversized_bands_fail_before_allocating():
    pk = PacketMoments(0.0, 0.0, 10.0, 50.0, hbar=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match="MiB for its bands and weights"):
            fock_state(pk, cutoff=2 ** 21)  # about 200 MiB of bands
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_nu_one_is_ground_state():
    pk = PacketMoments(0.0, 0.0, 1.0, 0.5, hbar=1.0)
    st = fock_state(pk, degree=2)
    assert st.rho[0, 0] == pytest.approx(1.0)
    assert np.trace(st.rho).real == pytest.approx(1.0)


def test_nu_one_weights_are_the_ground_projector_exactly():
    st = fock_state(PacketMoments(0.0, 0.0, 1.0, 0.5, hbar=1.0), cutoff=12)
    expected = np.zeros((12, 12), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(st.rho, expected)


def test_harmonic_evolution_matches_closed_form(packet):
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    st = fock_state(packet, cutoff=100)
    s0 = state_entropy(st)
    for t in np.linspace(0.0, 2 * math.pi, 7):
        evolved = fock_evolve(st, pot, float(t))
        moments = state_moments(evolved)
        exact = evolve_quadratic(packet, pot, float(t))
        for name in ("Q", "P", "dQ", "dP"):
            assert float(getattr(moments, name)) == pytest.approx(
                float(getattr(exact, name)), abs=1e-8
            )
        assert abs(state_entropy(evolved) - s0) < 1e-9
    assert s0 == pytest.approx(entropy_quantum(packet.nu_value()), abs=1e-9)


def test_evolution_identity_at_t0(state):
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    evolved = fock_evolve(state, pot, 0.0)
    assert np.allclose(evolved.rho, state.rho)


def test_horizon_error_on_leakage():
    pk = PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)
    st = fock_state(pk)  # minimal tail-resolved basis
    pot = PolynomialPotential(1.0, (0.0,))  # free spreading fills the basis
    with pytest.raises(HorizonError):
        fock_evolve(st, pot, 40.0, leak_tol=1e-10)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused_before_evolving(state, t):
    pot = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="must be finite"):
        fock_evolve(state, pot, t)


def test_nan_leakage_counts_as_over_tolerance(state):
    poisoned = state._replace(weights=np.full_like(state.weights, np.nan))
    with pytest.raises(HorizonError, match="leakage nan"):
        fock_evolve(poisoned, PolynomialPotential(1.0, (0.0, 0.0, 1.0)), 0.5)


QUARTIC = PolynomialPotential(1.0, (0.0, 0.3, 1.0, -0.4, 0.8))


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _diagonals(matrix):
    n = len(matrix)
    return {k: matrix.diagonal(k) for k in range(1 - n, n) if matrix.diagonal(k).any()}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 60])
def test_band_product_matches_dense_product(n):
    rng = np.random.default_rng(n)
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    for lower_a, upper_a, lower_b, upper_b in ((1, 1, 1, 1), (0, 3, 2, 0), (4, 2, 1, 5)):
        a = np.where((-offsets <= upper_a) & (offsets <= lower_a),
                     rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0)
        b = np.where((-offsets <= upper_b) & (offsets <= lower_b),
                     rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0)
        got, dense = _band_product(_diagonals(a), _diagonals(b), n), a @ b
        assert set(got) <= set(range(1 - n, n))  # no offset at or beyond n
        for k in range(1 - n, n):
            ref = dense.diagonal(k)
            assert np.max(np.abs(got.get(k, 0) - ref), initial=0) <= 1e-13 * np.max(np.abs(dense))


def _dense_hamiltonian(st, potential):
    dense = st.p_mat @ st.p_mat / (2.0 * potential.mass_value())
    for k in range(potential.degree + 1):
        qk = np.linalg.matrix_power(st.q_mat, k)
        dense = dense + potential.coefficient(k) / math.factorial(k) * qk
    return dense


def test_hamiltonian_matrix_matches_dense_reference(packet):
    st = fock_state(packet, cutoff=80)
    assert _rel(hamiltonian_matrix(st, QUARTIC), _dense_hamiltonian(st, QUARTIC)) < 1e-12


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_hamiltonian_matrix_drops_bands_beyond_a_small_cutoff(cutoff):
    # nu = 1 needs a single level, so the quartic's 9 bands overrun the basis
    st = fock_state(PacketMoments(0.4, -0.3, 1.0, 0.5, hbar=1.0), cutoff=cutoff)
    h = hamiltonian_matrix(st, QUARTIC)
    assert h.shape == (cutoff, cutoff)
    assert _rel(h, _dense_hamiltonian(st, QUARTIC)) < 1e-13


def test_state_moments_match_dense_traces(packet):
    evolved = fock_evolve(fock_state(packet, cutoff=80), QUARTIC, 0.2)
    rho, q, p = evolved.rho, evolved.q_mat, evolved.p_mat
    assert np.max(np.abs(rho - np.diag(np.diagonal(rho)))) > 1e-3  # not diagonal
    q1, p1 = np.trace(rho @ q).real, np.trace(rho @ p).real
    q2, p2 = np.trace(rho @ q @ q).real, np.trace(rho @ p @ p).real
    dense = (q1, p1, math.sqrt(q2 - q1 * q1), math.sqrt(p2 - p1 * p1))
    got = state_moments(evolved)
    for name, ref in zip(("Q", "P", "dQ", "dP"), dense):
        assert float(getattr(got, name)) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("centre", [1e4, 1e6, 1e8])
def test_state_moments_keep_the_spread_far_from_the_origin(centre):
    def moments(q, p):
        return state_moments(fock_state(PacketMoments(q, p, 1.0, 0.7, hbar=0.25)))

    origin, far = moments(0.0, 0.0), moments(centre, -centre)
    assert (far.Q, far.P) == (centre, -centre)
    assert far.dQ == pytest.approx(origin.dQ, rel=1e-12)
    assert far.dP == pytest.approx(origin.dP, rel=1e-12)


def test_repeated_potential_reuses_the_eigendecomposition(packet):
    st = fock_state(packet, cutoff=80)
    assert st.eigh_cache == {}
    first = fock_evolve(st, QUARTIC, 0.2)
    (entry,) = st.eigh_cache.values()
    again = fock_evolve(st, QUARTIC, 0.2)
    assert again.eigh_cache is st.eigh_cache
    (reused,) = st.eigh_cache.values()
    assert reused is entry
    fresh = fock_evolve(fock_state(packet, cutoff=80), QUARTIC, 0.2)
    assert np.array_equal(first.rho, fresh.rho)
    assert np.array_equal(again.rho, fresh.rho)
    # a later state evolves further with the shared eigendecomposition
    later = fock_evolve(first, QUARTIC, 0.2)
    once = fock_evolve(fock_state(packet, cutoff=80), QUARTIC, 0.4)
    assert np.max(np.abs(later.rho - once.rho)) < 1e-12


def test_second_potential_gets_its_own_hamiltonian(packet):
    harmonic = PolynomialPotential(1.0, (0.0, 0.0, 1.0))
    st = fock_state(packet, cutoff=80)
    fock_evolve(st, QUARTIC, 0.2)
    second = fock_evolve(st, harmonic, 0.2)
    ((w, _),) = st.eigh_cache.values()
    assert np.array_equal(w, np.linalg.eigh(hamiltonian_matrix(st, harmonic))[0])
    fresh = fock_evolve(fock_state(packet, cutoff=80), harmonic, 0.2)
    assert np.array_equal(second.rho, fresh.rho)


def _random_packet(rng):
    dq, dp = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    hbar = 2.0 * dq * dp / rng.uniform(1.0, 4.0)  # nu in [1, 4]
    return PacketMoments(rng.uniform(-2, 2), rng.uniform(-2, 2), dq, dp, hbar=hbar)


def test_expectation_trace_matches_the_dense_product_exactly():
    rng = random.Random(14)
    for _ in range(30):
        st = fock_state(_random_packet(rng), degree=8)
        for _ in range(3):
            word = "".join(rng.choice("qp") for _ in range(rng.randint(1, 8)))
            dense = complex(np.trace(st.rho @ _word_matrix(st, word)))
            assert repr(fock_expectation(st, [(1, word)])) == repr(dense)


def test_fresh_expectation_of_several_terms_is_the_dense_rho_sum_exactly():
    rng = random.Random(27)
    operators = [parse_weyl("p*q^2*p"), parse_weyl("q^3*p + 2*q*p - p^2"),
                 [(1 + 2j, "qp"), (-0.5j, "pq"), (3, "")],
                 [(0.25 - 1j, "pqqp"), (1j, "qqpp"), (-2, "q")]]
    for _ in range(10):
        st = fock_state(_random_packet(rng), degree=6)
        for op in operators:
            # the dense reference: rho as a matrix against the summed words
            total = np.zeros((st.cutoff, st.cutoff), dtype=complex)
            for coeff, word in oracle._operator_terms(op):
                value = coeff.evaluate(st.bindings) if hasattr(coeff, "evaluate") else coeff
                total += complex(value) * _word_matrix(st, word)
            dense = np.diag(st.weights).astype(complex)
            assert repr(fock_expectation(st, op)) == repr(
                complex((dense * total.T).sum(axis=1).sum()))


def test_expectation_trace_on_an_evolved_state(packet):
    evolved = fock_evolve(fock_state(packet, degree=8), QUARTIC, 0.2)
    for word in ("q", "pq", "qqpp", "pqpqpqqp"):
        dense = complex(np.trace(evolved.rho @ _word_matrix(evolved, word)))
        assert abs(fock_expectation(evolved, [(1, word)]) - dense) <= 1e-12 * abs(dense)


EVOLVED_OPERATORS = [parse_weyl("p*q^2*p"), parse_weyl("q^3*p + 2*q*p - p^2"),
                     parse_weyl("q^6 - 3*p^2*q^4 + q*p^5"),
                     [(1 + 2j, "qp"), (-0.5j, "pq"), (3, "")],
                     [(0.25 - 1j, "pqqpqp"), (1j, "qqpp"), (-2, "q")]]


@pytest.mark.parametrize("cutoff", [80, oracle.BLOCK + 6, 300])
def test_evolved_trace_is_the_dense_trace(packet, cutoff):
    # one block, one block that reaches the top level, several blocks
    evolved = fock_evolve(fock_state(packet, cutoff=cutoff), QUARTIC, 0.2)
    rho = evolved.rho
    assert np.max(np.abs(rho - np.diag(np.diagonal(rho)))) > 1e-3  # not diagonal
    for op in EVOLVED_OPERATORS:
        dense = 0j
        for coeff, word in oracle._operator_terms(op):
            value = coeff.evaluate(evolved.bindings) if hasattr(coeff, "evaluate") else coeff
            dense += complex(value) * np.trace(rho @ _word_matrix(evolved, word))
        assert abs(fock_expectation(evolved, op) - dense) <= 1e-12 * abs(dense), op


def test_trace_of_the_zero_operator_is_zero(packet):
    fresh = fock_state(packet, cutoff=60)
    for st in (fresh, fock_evolve(fresh, QUARTIC, 0.2)):
        for op in (parse_weyl("q^2 - q^2"), []):
            assert repr(fock_expectation(st, op)) == "0j"


def test_evolved_trace_reads_the_factor_and_word_blocks_only(packet, monkeypatch):
    evolved = fock_evolve(fock_state(packet, cutoff=300), QUARTIC, 0.2)
    expected = [fock_expectation(evolved, op) for op in EVOLVED_OPERATORS]
    moments = state_moments(evolved)

    def dense_rho(self):
        raise AssertionError("a trace read the dense rho")

    monkeypatch.setattr(oracle.FockState, "rho", property(dense_rho))
    whole_word, levels = oracle._word_matrix, []

    def word_matrix(state, word):
        levels.append((state.cutoff, len(word)))
        return whole_word(state, word)

    monkeypatch.setattr(oracle, "_word_matrix", word_matrix)
    assert [fock_expectation(evolved, op) for op in EVOLVED_OPERATORS] == expected
    assert state_moments(evolved) == moments
    assert levels and all(size <= oracle.BLOCK + 2 * length for size, length in levels)


def test_fresh_state_is_its_weights_on_the_number_basis(packet, state):
    assert state.vectors is None
    assert np.array_equal(state.rho, np.diag(state.weights))
    assert state.rho.dtype == complex
    moments = state_moments(state)
    for name in ("Q", "P", "dQ", "dP"):
        assert float(getattr(moments, name)) == pytest.approx(
            float(getattr(packet, name)), rel=1e-12
        )
    # the deficit read off the weights is the dense trace's, bit for bit
    rng = random.Random(9)
    for _ in range(20):
        st = fock_state(_random_packet(rng), degree=rng.randint(0, 300))
        assert st.trace_deficit == 1.0 - float(st.rho.trace().real)


def test_evolved_state_is_a_unitary_rotation_of_its_weights(packet):
    st = fock_state(packet, cutoff=80)
    first = fock_evolve(st, QUARTIC, 0.3)
    later = fock_evolve(first, QUARTIC, 0.2)
    for evolved in (first, later):
        v, w = evolved.vectors, evolved.weights
        assert np.max(np.abs(v.conj().T @ v - np.eye(80))) < 1e-12
        assert w is st.weights
        assert np.array_equal(evolved.rho, (v * w) @ v.conj().T)
        leak = np.diagonal(evolved.rho).real[-oracle.LEAK_BAND:].sum()
        assert evolved.leakage == pytest.approx(leak, rel=1e-9, abs=1e-25)
        assert state_entropy(evolved) == state_entropy(st)


def test_diagonal_evolution_matches_the_dense_product(packet):
    st = fock_state(packet, cutoff=80)
    t = 0.3
    evolved = fock_evolve(st, QUARTIC, t)
    ((w, v),) = st.eigh_cache.values()
    u = (v * np.exp(-1j * w * t / st.hbar)) @ v.conj().T
    dense = u @ st.rho @ u.conj().T
    assert np.max(np.abs(evolved.rho - dense)) < 1e-13


def test_evolving_an_evolved_state_adds_the_times(packet):
    first = fock_evolve(fock_state(packet, cutoff=80), QUARTIC, 0.15)
    assert first.vectors is not None  # the U @ vectors path
    later = fock_evolve(first, QUARTIC, 0.25)
    once = fock_evolve(fock_state(packet, cutoff=80), QUARTIC, 0.4)
    assert np.max(np.abs(later.rho - once.rho)) < 1e-12


def test_entropy_of_a_fresh_state_matches_its_eigenvalues():
    rng = random.Random(5)
    for _ in range(10):
        st = fock_state(_random_packet(rng), degree=4)
        dense = -sum(lam * math.log(lam) for lam in np.linalg.eigvalsh(st.rho) if lam > 1e-300)
        assert abs(state_entropy(st) - dense) <= 1e-14


def test_word_matrix_equals_identity_started_product(state):
    rng = random.Random(3)
    for _ in range(10):
        word = "".join(rng.choice("qp") for _ in range(rng.randint(1, 6)))
        dense = np.eye(state.cutoff, dtype=complex)
        for letter in word:
            dense = dense @ (state.q_mat if letter == "q" else state.p_mat)
        assert np.array_equal(_word_matrix(state, word), dense)
    assert np.array_equal(_word_matrix(state, ""), np.eye(state.cutoff))
    with pytest.raises(DomainError):
        _word_matrix(state, "qx")


def _random_words(rng, count, longest):
    return ["".join(rng.choice("qp") for _ in range(rng.randint(1, longest)))
            for _ in range(count)]


@pytest.mark.parametrize("n", [oracle.BLOCK, oracle.BLOCK + 1])
def test_word_diagonal_up_to_one_block_is_the_dense_product_bit_for_bit(packet, n):
    st = fock_state(packet, cutoff=n)
    for word in _random_words(random.Random(n), 10, 8):
        bands, dense = _word_bands(st, word), _word_matrix(st, word)
        assert np.array_equal(_bits(bands[0]), _bits(dense.diagonal()))
        assert sorted(bands) == list(range(-len(word), len(word) + 1))
        for k, band in bands.items():
            assert np.array_equal(_bits(band), _bits(dense.diagonal(k)))
    for i, dense in enumerate((st.q_mat, st.p_mat)):
        for lo, hi in ((0, n), (0, 1), (3, 40), (n - 5, n)):
            window = oracle._levels(st, lo, hi)
            assert np.array_equal(_bits(_word_matrix(window, "qp"[i])),
                                  _bits(dense[lo:hi, lo:hi]))


@pytest.mark.parametrize("n", [200, 400, 800])
def test_word_diagonal_over_several_blocks_matches_the_dense_product(packet, n):
    # the blocks sum the same terms as the dense product, though BLAS may
    # group a larger product's sums differently
    st = fock_state(packet, cutoff=n)
    for word in _random_words(random.Random(n), 6, 8):
        matrix = _word_matrix(st, word)
        dense = matrix.diagonal()
        bands = _word_bands(st, word)
        got = bands[0]
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense)), word
        # the off-diagonal bands, against the largest entry of the word
        assert sorted(bands) == list(range(-len(word), len(word) + 1))
        largest = np.max(np.abs(matrix))
        for k, band in bands.items():
            assert np.max(np.abs(band - matrix.diagonal(k))) <= 1e-13 * largest, (word, k)


@pytest.mark.parametrize("n", [40, 300])
def test_word_longer_than_a_block(n):
    st = fock_state(PacketMoments(0.2, -0.1, 0.3, 2.0, hbar=1.0), cutoff=n)  # nu = 1.2
    rng = random.Random(n)
    word = "".join(rng.choice("qp") for _ in range(oracle.BLOCK + 20))
    matrix = _word_matrix(st, word)
    dense = matrix.diagonal()
    bands = _word_bands(st, word)
    assert np.max(np.abs(bands[0] - dense)) <= 1e-12 * np.max(np.abs(dense))
    # the word's bands reach past the next block; none lies at or beyond n
    assert sorted(bands) == list(range(-min(len(word), n - 1), min(len(word), n - 1) + 1))
    largest = np.max(np.abs(matrix))
    for k, band in bands.items():
        assert np.max(np.abs(band - matrix.diagonal(k))) <= 1e-12 * largest, k


@pytest.mark.parametrize("n", [9, oracle.BLOCK + 1, 300])
def test_empty_word_diagonal_is_the_identity(n):
    st = fock_state(PacketMoments(0.0, 0.0, 1.0, 0.5, hbar=1.0), cutoff=n)  # nu = 1
    bands = _word_bands(st, "")
    assert list(bands) == [0]
    assert np.array_equal(bands[0], np.ones(n, dtype=complex))
    assert fock_expectation(st, [(3, "")]) == 3 * complex(st.weights.sum())


def _dense_letters(st):
    """q and p as a dense build forms them: Q 1 + s (a + a^dagger) and
    P 1 - i s (a - a^dagger) with a^dagger = conj(a)^T."""
    n, b = st.cutoff, st.bindings
    lower = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n)
    lower[idx - 1, idx] = np.sqrt(idx)
    raise_ = lower.conj().T
    scale_q, scale_p = b["dQ"] / math.sqrt(st.nu), b["dP"] / math.sqrt(st.nu)
    return (b["Q"] * np.eye(n) + scale_q * (lower + raise_),
            b["P"] * np.eye(n) - 1j * scale_p * (lower - raise_))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("centre", [0.0, -0.0, -0.7, 1.3])
def test_letters_are_the_dense_build_bit_for_bit(centre):
    # signed zeros included: a zero's sign can decide how an exactly zero
    # imaginary part prints
    rng = random.Random(str(centre))
    for n in (2, 3, 17, 80):
        for other in (0.0, -0.0, -1.1, 0.4):
            for q, p in ((centre, other), (other, centre)):
                dq = Fraction(rng.randint(8, 12), 10)
                dp = 1 / (2 * dq) if n < 80 else rng.uniform(0.7, 0.9)  # nu = 1 for n < 80
                st = fock_state(PacketMoments(q, p, dq, dp, hbar=1), cutoff=n)
                for held, built, ref in zip((st.q_bands, st.p_bands), (st.q_mat, st.p_mat),
                                            _dense_letters(st)):
                    assert np.array_equal(_bits(built), _bits(ref))
                    assert sorted(held) == [-1, 0, 1]
                    for k, band in held.items():
                        assert np.array_equal(_bits(band), _bits(ref.diagonal(k)))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fresh_state_holds_no_dense_matrix():
    pk = PacketMoments(0.3, -0.2, 0.8, 7.5, hbar=1.0)  # nu = 12
    assert _peak_bytes(lambda: fock_state(pk, cutoff=400)) < 2 ** 20  # a matrix is 2.4 MiB


def test_evolution_makes_one_dense_temporary_besides_the_propagator():
    pk = PacketMoments(0.3, -0.2, 0.8, 7.5, hbar=1.0)
    st = fock_state(pk, cutoff=400)
    evolved = fock_evolve(st, QUARTIC, 0.05)  # decomposes H once, outside the count
    matrix = 16 * st.cutoff ** 2
    # U alone from a fresh state, formed in row blocks; U and U V from an evolved one
    assert _peak_bytes(lambda: fock_evolve(st, QUARTIC, 0.05)) < 2 * matrix
    assert _peak_bytes(lambda: fock_evolve(evolved, QUARTIC, 0.05)) < 3 * matrix


def test_an_evolved_trace_makes_no_dense_temporary():
    # rho's bands come from BLOCK + L rows of S = V sqrt(w) at a time, not
    # from S and its conjugate whole
    pk = PacketMoments(0.3, -0.2, 0.8, 7.5, hbar=1.0)
    evolved = fock_evolve(fock_state(pk, cutoff=600), QUARTIC, 0.05)
    matrix = 16 * evolved.cutoff ** 2
    operator = parse_weyl("q^3*p + 2*q*p - p^2")
    assert _peak_bytes(lambda: fock_expectation(evolved, operator)) < matrix
    assert _peak_bytes(lambda: state_moments(evolved)) < matrix


@pytest.mark.parametrize("cutoff", [80, oracle.BLOCK, oracle.BLOCK + 1, 300])
def test_propagator_in_row_blocks_is_the_whole_product(cutoff):
    st = fock_state(PacketMoments(0.3, -0.2, 1.0, 0.5, hbar=1.0), cutoff=cutoff)  # nu = 1
    t = 0.3
    evolved = fock_evolve(st, QUARTIC, t)
    ((h, e),) = st.eigh_cache.values()
    u = np.conj(e) * np.exp(-1j * h * t / st.hbar).conj()
    # a block of a few rows may take another BLAS kernel, which rounds differently
    assert np.max(np.abs(evolved.vectors - np.conj(u @ e.T))) <= 1e-14


def test_expectation_checks_cutoff_before_building_words(packet, monkeypatch):
    st = fock_state(packet, degree=0)
    needed = choose_cutoff(packet.nu_value(), 24)
    built = []
    monkeypatch.setattr(oracle, "_word_matrix", lambda *args: built.append(args))
    message = f"cutoff {st.cutoff} too small for degree 24; need >= {needed}"
    with pytest.raises(CutoffError, match=f"^{message}$"):
        fock_expectation(st, parse_weyl("q^12*p^12"))
    with pytest.raises(CutoffError, match=f"^{message}$"):
        fock_expectation(st, [(1, "q"), (1, "qp" * 12)])
    assert built == []


def test_quadrature_simple_moments(packet):
    b = packet.bindings()
    assert gaussian_moment_numeric(packet, 2, 0) == pytest.approx(
        b["Q"] ** 2 + b["dQ"] ** 2, rel=1e-13
    )
    # central fourth moment 3 dQ^4
    centered = PacketMoments(0.0, 0.0, b["dQ"], b["dP"], hbar=1.0)
    assert gaussian_moment_numeric(centered, 4, 0) == pytest.approx(
        3 * b["dQ"] ** 4, rel=1e-13
    )


def test_quadrature_rejects_negative_exponent(packet):
    with pytest.raises(DomainError):
        gaussian_moment_numeric(packet, -1, 0)
