"""Quantum ME packets: multipliers, partition, weights, moments, entropy."""

import math
import random
from fractions import Fraction

import pytest

from mepack.algebra import Expr, WeylPolynomial, parse_expression, parse_weyl
from mepack.classical import ClassicalMultipliers, moment_classical, partition_classical
from mepack.errors import DomainError, PureStateLimitError, routes_agree
from mepack.oracle import choose_cutoff, fock_expectation, fock_state
from mepack.packets import PacketMoments
from mepack.quantum import (
    QuantumMultipliers,
    entropy_from_multipliers,
    entropy_quantum,
    entropy_weight_sum,
    expectation_quantum,
    expectation_value,
    fock_weight,
    ground_wavefunction,
    ladder_monomial_expectation,
    log_ratio_factor,
    partition_quantum,
    restore_hbar,
    solve_multipliers_quantum,
    stationarity_defect,
    tail_levels,
    tail_weight,
    weyl_monomial_expectation,
)


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def test_multipliers_symbolic_match_closed_form(sym_packet):
    mult = solve_multipliers_quantum(sym_packet)
    factor = parse_expression("(1/2)*nu*Lnu")
    assert mult.lam1 == parse_expression("-Q/dQ^2") * factor
    assert mult.lam2 == parse_expression("-P/dP^2") * factor
    assert mult.lam3 == parse_expression("1/(2*dQ^2)") * factor
    assert mult.lam4 == parse_expression("1/(2*dP^2)") * factor


def test_multiplier_factor_tends_to_one():
    # (nu/2) ln((nu+1)/(nu-1)) -> 1, so the classical multipliers reappear
    for nu, tol in ((10.0, 1e-2), (1e3, 1e-5), (1e6, 1e-6)):
        factor = log_ratio_factor().evaluate(
            {"nu": nu, "Lnu": math.log((nu + 1) / (nu - 1))}
        ).real
        assert abs(factor - 1.0) < tol


def test_multipliers_diverge_at_pure_state_limit():
    # the common factor grows like ln(1/(nu-1)) as nu -> 1+
    values = []
    for eps in (1e-1, 1e-4, 1e-7, 1e-10):
        nu = 1.0 + eps
        values.append(
            log_ratio_factor().evaluate({"nu": nu, "Lnu": math.log((nu + 1) / (nu - 1))}).real
        )
    assert values == sorted(values)
    assert values[-1] > 10.0
    # and the packet multipliers inherit the divergence
    pk_far = PacketMoments(1.0, 0.0, 1.0, 1.0, hbar=1.0)          # nu = 2
    pk_near = PacketMoments(1.0, 0.0, 1.0, 0.5 + 5e-11, hbar=1.0)  # nu -> 1+
    lam3_far = solve_multipliers_quantum(pk_far).lam3.evaluate(pk_far.bindings()).real
    lam3_near = solve_multipliers_quantum(pk_near).lam3.evaluate(pk_near.bindings()).real
    assert lam3_near > 10 * lam3_far


def test_numeric_multipliers_keep_the_log_symbolic():
    # ln((nu+1)/(nu-1)) has no exact value: the float in bindings() is
    # only read when a multiplier is evaluated
    pk = PacketMoments(1.0, 0.0, 1.0, 1.0, hbar=1.0)  # nu = 2
    lam3 = solve_multipliers_quantum(pk).lam3
    assert lam3 == parse_expression("Lnu/2")
    assert lam3.evaluate(pk.bindings()).real == pytest.approx(math.log(3) / 2, rel=1e-15)


@pytest.mark.parametrize("nu", [1e8, 1e12, 1e17])
def test_bindings_keep_the_digits_of_lnu_at_large_nu(nu):
    # ln((nu+1)/(nu-1)) taken as the log of a quotient loses about nu*1e-16
    # relative, and reads 0.0 from nu ~ 1e16 on
    lnu = PacketMoments(0, 0, nu / 2, 1, hbar=1).bindings()["Lnu"]
    reference = 2 * math.atanh(1 / nu)
    assert abs(lnu - reference) <= 4 * math.ulp(reference)


def test_multipliers_domain_errors():
    with pytest.raises(PureStateLimitError):
        solve_multipliers_quantum(PacketMoments(0, 0, 1.0, 0.5, hbar=1.0))
    with pytest.raises(DomainError):
        solve_multipliers_quantum(PacketMoments(0, 0, 0.5, 0.5, hbar=1.0))


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------


def _symbol_multipliers():
    return QuantumMultipliers(
        Expr.symbol("lam1"), Expr.symbol("lam2"), Expr.symbol("lam3"), Expr.symbol("lam4")
    )


def test_partition_quantum_form_and_centered_case():
    z = partition_quantum(_symbol_multipliers())
    assert z.exponent() == parse_expression("lam1^2/(4*lam3) + lam2^2/(4*lam4)")
    centered = partition_quantum(
        QuantumMultipliers(Expr(), Expr(), Expr.symbol("lam3"), Expr.symbol("lam4"))
    )
    assert centered.exponent().is_zero()
    b = {"lam3": 0.7, "lam4": 1.3, "hbar": 1.0, "pi": math.pi}
    x = math.sqrt(0.7 * 1.3)
    assert centered.evaluate(b) == pytest.approx(1.0 / (2 * math.sinh(x)), rel=1e-12)


def test_partition_quantum_rejects_nonpositive():
    with pytest.raises(DomainError):
        partition_quantum(
            QuantumMultipliers(Expr(), Expr(), Expr.number(-2), Expr.number(1))
        )


def test_partition_quantum_needs_hbar_in_bindings():
    # a mapping without hbar is a caller's error, not a packet with hbar = 1
    z = partition_quantum(_symbol_multipliers())
    with pytest.raises(KeyError, match="hbar"):
        z.evaluate({"lam1": 0.3, "lam2": -0.2, "lam3": 0.7, "lam4": 1.3, "pi": math.pi})


def test_partition_small_hbar_leading_term_is_classical_with_v_h():
    z_quantum = partition_quantum(_symbol_multipliers())
    leading = z_quantum.leading_small_hbar()
    v_h = Expr.number(2) * Expr.symbol("pi") * Expr.symbol("hbar")
    z_classical = partition_classical(ClassicalMultipliers.symbols(volume=v_h))
    assert leading == z_classical


def test_partition_quantum_vs_classical_numeric_ratio():
    # for small hbar sqrt(lam3 lam4) the two partition functions converge
    b = {"lam1": 0.3, "lam2": -0.2, "lam3": 0.9, "lam4": 1.8, "pi": math.pi}
    zq = partition_quantum(_symbol_multipliers())
    zc = partition_classical(ClassicalMultipliers.symbols())
    for hbar, tol in ((1e-2, 1e-4), (1e-4, 1e-8)):
        bq = dict(b, hbar=hbar)
        bc = dict(b, v=2 * math.pi * hbar)
        assert zq.evaluate(bq) / zc.evaluate(bc).real == pytest.approx(1.0, abs=3 * tol)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_fock_weight_pure_state():
    assert fock_weight(1, 0) == 1
    assert fock_weight(1, 5) == 0


def test_fock_weight_nu_3_halving():
    for k in range(6):
        assert fock_weight(Fraction(3), k) == Fraction(1, 2 ** (k + 1))


def test_fock_weight_sums_to_one_exactly():
    # partial sum plus the exact geometric tail is identically 1
    for nu in (Fraction(3), Fraction(7, 2), Fraction(100)):
        n = 40
        partial = sum(fock_weight(nu, k) for k in range(n + 1))
        tail = ((nu - 1) / (nu + 1)) ** (n + 1)
        assert partial + tail == 1


def test_fock_weight_monotone_and_domain():
    ws = [fock_weight(5.0, k) for k in range(10)]
    assert all(a >= b for a, b in zip(ws, ws[1:]))
    with pytest.raises(DomainError):
        fock_weight(0.5, 0)
    with pytest.raises(DomainError):
        fock_weight(2.0, -1)


def test_fock_weights_view():
    nu = Fraction(3)
    assert fock_weight(nu, 1) == Fraction(1, 4)
    assert sum(fock_weight(nu, k) for k in range(11)) + tail_weight(nu, 10) == 1
    n = tail_levels(nu, 1e-12)
    assert n == 40
    assert float(tail_weight(nu, n - 1)) < 1e-12 <= float(tail_weight(nu, n - 2))
    assert tail_levels(Fraction(200), 1e-12) == 2764
    assert tail_levels(Fraction(2000), 1e-12) == 27632
    assert fock_weight(1, 0) == 1 and tail_weight(1, 0) == 0
    for call in (
        lambda: fock_weight(0.2, 0),
        lambda: tail_weight(0.2, 0),
        lambda: tail_levels(0.2, 1e-12),
    ):
        with pytest.raises(DomainError):
            call()


def test_tail_levels_refuse_nu_beyond_float_range():
    # (nu-1)/(nu+1) rounds to 1.0 here (nan at inf), so log(x) gives no count
    for call in (
        lambda: choose_cutoff(1e16),
        lambda: tail_levels(1e16, 1e-12),
        lambda: entropy_weight_sum(1e17),
        lambda: choose_cutoff(math.inf),
    ):
        with pytest.raises(DomainError, match=r"nu = (1e\+1[67]|inf)"):
            call()
    # just below, the level count keeps its formula
    assert choose_cutoff(1e15) == 13826561822395783


# ---------------------------------------------------------------------------
# the moment engine
# ---------------------------------------------------------------------------


def test_expectation_qp(sym_packet):
    got = expectation_quantum(sym_packet, parse_weyl("q*p"))
    assert restore_hbar(got) == parse_expression("Q*P + (1/2)*i*hbar")


def test_expectation_q3p(sym_packet):
    got = expectation_quantum(sym_packet, parse_weyl("q^3*p"))
    assert got == parse_expression(
        "Q^3*P + 3*Q*P*dQ^2 + 3*i*Q^2*dQ*dP/nu + 3*i*dQ^3*dP/nu"
    )


def test_expectation_pq2p_second_order_correction(sym_packet):
    got = expectation_quantum(sym_packet, parse_weyl("p*q^2*p"))
    classical = moment_classical(sym_packet, parse_weyl("q^2*p^2").classical())
    assert got - classical == parse_expression("2*dQ^2*dP^2/nu^2")


def test_expectation_symmetrized_qp(sym_packet):
    got = expectation_quantum(sym_packet, parse_weyl("q*p + p*q"))
    assert got == parse_expression("2*Q*P")


def test_constraint_closure(sym_packet):
    q, p = Expr.symbol("Q"), Expr.symbol("P")
    assert expectation_quantum(sym_packet, parse_weyl("q")) == q
    assert expectation_quantum(sym_packet, parse_weyl("p")) == p
    assert expectation_quantum(sym_packet, parse_weyl("q^2")) == parse_expression("Q^2 + dQ^2")
    assert expectation_quantum(sym_packet, parse_weyl("p^2")) == parse_expression("P^2 + dP^2")
    centered = parse_weyl("q^2 - 2*Q*q + Q^2")
    assert expectation_quantum(sym_packet, centered) == parse_expression("dQ^2")


def test_hermiticity(sym_packet):
    rng = random.Random(17)
    for _ in range(10):
        word = "".join(rng.choice("qp") for _ in range(rng.randint(1, 5)))
        x = WeylPolynomial.from_word(word)
        lhs = expectation_quantum(sym_packet, x.adjoint())
        rhs = expectation_quantum(sym_packet, x).conjugate()
        assert lhs == rhs


def test_symmetric_orderings_are_real(sym_packet):
    for text in ("q*p + p*q", "q^3*p + p*q^3", "q^2*p*q^2", "p*q^2*p", "q*p^2*q"):
        e = expectation_quantum(sym_packet, parse_weyl(text))
        assert e == e.conjugate()


def test_classical_limit_of_moments(sym_packet):
    # the nu-independent part of <q^a p^b> is the classical Gaussian moment
    for a in range(7):
        for b in range(7 - a):
            quantum = weyl_monomial_expectation(a, b)
            classical_part = quantum.coefficient_of("nu", 0)
            classical = moment_classical(
                sym_packet, parse_weyl("q").classical() ** a * parse_weyl("p").classical() ** b
            )
            assert classical_part == classical


def test_expectation_routes_disagree_never():
    # each cold entry up to degree 6 runs the runtime checks: the Wigner
    # route against the centred diagonal representation, and that one's
    # two summation routes against each other
    weyl_monomial_expectation.cache_clear()
    for a in range(7):
        for b in range(7 - a):
            weyl_monomial_expectation(a, b)


def test_engine_matches_ladder_reference_to_degree_8():
    # the answer and the centred check route, each against the reference;
    # the partition route's reference, the GaussianPartition.diff chain, is
    # in test_classical.py
    import mepack.quantum as quantum

    for n in range(9):
        for a in range(n + 1):
            reference = ladder_monomial_expectation(a, n - a)
            assert weyl_monomial_expectation(a, n - a) == reference, (a, n - a)
            assert quantum._centred_route(a, n - a) == reference, (a, n - a)


def test_route_assertion_sees_a_perturbed_centred_route(monkeypatch):
    import mepack.quantum as quantum

    exact = quantum._centred_moment

    def perturbed(j, k):
        table = exact(j, k)
        return (table[0] + 1, *table[1:]) if (j, k) == (1, 1) else table

    monkeypatch.setattr(quantum, "_centred_moment", perturbed)
    weyl_monomial_expectation.cache_clear()
    with pytest.raises(AssertionError, match=r"Wigner and ladder routes disagree for q\^1 p\^1"):
        weyl_monomial_expectation(1, 1)


def test_summation_check_sees_a_perturbed_route(monkeypatch):
    import mepack.quantum as quantum

    exact = quantum._monomial_weight_table

    def perturbed(n):
        table = exact(n)
        return (table[0] + 1, *table[1:]) if n == 1 else table

    monkeypatch.setattr(quantum, "_monomial_weight_table", perturbed)
    cached = (weyl_monomial_expectation, quantum._centred_moment)
    for fn in cached:
        fn.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"summation routes disagree for X\^2 Y\^0"):
            weyl_monomial_expectation(2, 0)
    finally:
        for fn in cached:
            fn.cache_clear()


def test_routes_agree_returns_the_answer_or_names_both_values():
    assert routes_agree("unused", Fraction(1, 2), Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(AssertionError, match=r"^q\^2 routes disagree: 1 vs 2$"):
        routes_agree("q^2 routes disagree", 1, 2)


def test_moment_engine_stays_off_the_symbolic_ladder_image(monkeypatch):
    # perf guard: the full symbolic to_ladder expansion is the reference
    # route only, never the engine's
    import mepack.algebra.ladder as ladder
    import mepack.quantum as quantum

    def refuse(*_args, **_kwargs):
        raise AssertionError("to_ladder called on the moment engine's path")

    monkeypatch.setattr(quantum, "to_ladder", refuse)
    monkeypatch.setattr(ladder, "to_ladder", refuse)
    for cached in (weyl_monomial_expectation, quantum._centred_moment, quantum._centred_word):
        cached.cache_clear()
    weyl_monomial_expectation(7, 7)
    word = parse_weyl("p*q*q*p*q*p*p*q*p*q")
    assert word.degree() == 10
    expectation_quantum(PacketMoments.symbolic(), word)


def test_integer_centred_words_match_the_expr_reference():
    # reference: the words X^j Y^k with Expr coefficients, Y = -i (A - Ad),
    # grown one letter at a time; the engine builds X^j (A - Ad)^k over the
    # integers, sums it against the int weight tables, and applies (-i)^k
    # in the centred route.  j + k <= 14 covers the moments benchmark's
    # longest word.
    import mepack.quantum as quantum
    from mepack.algebra.ladder import LadderPolynomial, diagonal_part

    one, i = Expr.number(1), Expr.i()
    x = LadderPolynomial({(0, 1): one, (1, 0): one})
    y = LadderPolynomial({(0, 1): -i, (1, 0): i})
    y_word = LadderPolynomial.constant(1)
    for k in range(15):
        word = y_word
        for j in range(15 - k):
            falling = diagonal_part(word)
            assert not ((j + k) % 2 and falling)
            if (j + k) % 2:
                assert quantum._centred_moment(j, k) == (), (j, k)
            else:
                reference = quantum._diagonal_average(falling, f"X^{j} Y^{k}", (j + k) // 2)
                table = quantum._centred_moment(j, k)
                assert [(-Expr.i()) ** k * c for c in table] == reference, (j, k)
            word = x * word
        y_word = y_word * y


def test_centred_check_route_stays_in_int():
    # the centred words are plain ladder polynomials over int; their
    # diagonals, the Stirling conversion and the weighted sums keep int
    # coefficients; Expr first appears when _centred_route writes its terms
    import mepack.quantum as quantum
    from mepack.algebra.ladder import LadderPolynomial, diagonal_part, falling_to_powers

    for j in range(11):
        for k in range(11 - j):
            word = quantum._centred_word(j, k)
            assert type(word) is LadderPolynomial, (j, k)
            assert all(type(c) is int for _, c in word.terms()), (j, k)
            falling = diagonal_part(word)
            coeffs = [*falling.values(), *falling_to_powers(falling).values()]
            assert all(type(c) is int for c in coeffs), (j, k)
            assert all(type(c) is int for c in quantum._centred_moment(j, k)), (j, k)


def _clear_moment_caches():
    import mepack.classical as classical
    import mepack.quantum as quantum

    for module in (quantum, classical):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_cold_check_routes_make_no_expr_products(monkeypatch):
    # perf guard: both check routes compute over ints and rationals and
    # write each term once; the Expr recurrences and term-by-term products
    # they replaced made 165 Expr products and 294 sum_of_products calls
    # for these two cold moments
    import sys

    import mepack.classical as classical
    import mepack.quantum as quantum

    def refuse(name):
        def refused(*_args, **_kwargs):
            raise AssertionError(f"{name} called on a check route")
        return refused

    monkeypatch.setattr(Expr, "__mul__", refuse("Expr.__mul__"))
    monkeypatch.setattr(Expr, "__rmul__", refuse("Expr.__rmul__"))
    for name, module in list(sys.modules.items()):
        if name.startswith("mepack") and hasattr(module, "sum_of_products"):
            monkeypatch.setattr(module, "sum_of_products", refuse("sum_of_products"))
    _clear_moment_caches()
    quantum._centred_route(7, 7)
    classical._moment_partition_route(6, 6)


def test_check_routes_equal_their_answer_routes_to_degree_12():
    import mepack.classical as classical
    import mepack.quantum as quantum

    _clear_moment_caches()
    for n in range(13):
        for a in range(n + 1):
            b = n - a
            assert quantum._centred_route(a, b) == quantum._wigner_route(a, b), (a, b)
            assert classical._moment_partition_route(a, b) == classical.moment_gaussian_route(a, b), (a, b)


def test_monomial_weight_table_matches_the_series():
    # 2^n <k^n> against sum_k k^n R_k in closed form, at nu = 3, 5, 7, where
    # the weights R_k = 2 (nu-1)^k / (nu+1)^(k+1) = (1 - x) x^k are exact
    import mepack.quantum as quantum

    for nu in (3, 5, 7):
        x = Fraction(nu - 1, nu + 1)
        for n in range(9):
            table = quantum._monomial_weight_table(n)
            value = Fraction(sum(c * nu ** e for e, c in enumerate(table)), 2 ** n)
            assert value == (1 - x) * _polylog_negative(n, x), (nu, n)


def _polylog_negative(n, x):
    """sum_{k>=0} k^n x^k for |x| < 1, as x A_n(x) / (1 - x)^(n+1) with the
    Eulerian numbers A(n, m) (and 1 / (1 - x) for n = 0)."""
    if n == 0:
        return 1 / (1 - x)
    eulerian = [[1]]
    for row in range(1, n + 1):
        prev = eulerian[-1] + [0]
        eulerian.append([
            (m + 1) * prev[m] + (row - m) * (prev[m - 1] if m else 0)
            for m in range(row)
        ])
    numerator = sum(a * x ** (m + 1) for m, a in enumerate(eulerian[n]))
    return numerator / (1 - x) ** (n + 1)


def test_cold_moment_makes_few_expr_products(monkeypatch):
    # perf guard: with every moment cache cleared, <q^7 p^7> took 5214
    # Expr products when the centred words carried Expr coefficients and
    # the centred route multiplied one chain of Expr products per (j, k)
    import mepack.classical as classical
    import mepack.quantum as quantum

    for module in (quantum, classical):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    calls = []
    exact = Expr.__mul__

    def counted(self, other):
        calls.append(1)
        return exact(self, other)

    monkeypatch.setattr(Expr, "__mul__", counted)
    weyl_monomial_expectation(7, 7)
    assert len(calls) < 1500


def test_expectation_on_numeric_packet_is_a_number(numeric_packet, sym_packet):
    x = parse_weyl("q*p^2*q + (1/3)*hbar*p^3 - q^4")
    got = expectation_quantum(numeric_packet, x)
    assert got.is_constant()
    values = {"Q": 0.7, "P": -0.3, "dQ": 1.2, "dP": 1.5, "nu": numeric_packet.nu}
    assert got == expectation_quantum(sym_packet, x).substitute(values)
    assert got.evaluate({}) == pytest.approx(expectation_value(numeric_packet, x), rel=1e-12)
    assert sym_packet.specialize(got) is got


@pytest.mark.parametrize("centre", [1e4, 1e6, 1e8])
def test_expectation_value_is_exact_far_from_the_origin(centre):
    # exact at the packet's values, rounded once: no cancellation of Q^4 terms
    packet = PacketMoments(centre, 0, 1, 1, hbar=1)
    assert expectation_value(packet, parse_weyl("(q-Q)^4")) == 3


def test_mixed_packet_with_symbolic_spread_keeps_its_numbers():
    packet = PacketMoments(1, 0, Expr.symbol("dQ"), 1)
    assert expectation_quantum(packet, parse_weyl("q^2")) == 1 + Expr.symbol("dQ") ** 2
    assert packet.nu == Expr.symbol("nu")


def test_mixed_packet_with_numeric_spreads_substitutes_nu_and_checks_it():
    packet = PacketMoments(Expr.symbol("Q") + 1, 0, 2, 1)
    assert packet.nu == 4 and packet.nu_value() == 4.0
    assert expectation_quantum(packet, parse_weyl("q")) == Expr.symbol("Q") + 1
    assert expectation_quantum(packet, parse_weyl("q^2")) == (Expr.symbol("Q") + 1) ** 2 + 4
    assert expectation_quantum(packet, parse_weyl("p*q")) == -Expr.i() / 2  # -i hbar/2
    below = PacketMoments(Expr.symbol("Q"), 0, Fraction(1, 4), 1)
    with pytest.raises(DomainError, match="violates the bound"):
        expectation_quantum(below, parse_weyl("q"))
    with pytest.raises(PureStateLimitError):
        solve_multipliers_quantum(PacketMoments(Expr.symbol("Q"), 0, Fraction(1, 2), 1))


@pytest.mark.parametrize("value", [Expr.number(1 + 2j), 1 + 2j])
@pytest.mark.parametrize("field", ["Q", "P", "dQ", "dP"])
def test_non_real_constant_packet_field_is_refused(field, value):
    values = {"Q": 0, "P": 0, "dQ": 1, "dP": 1, field: value}
    with pytest.raises(DomainError, match=f"{field} must be real"):
        PacketMoments(**values)


def test_symbolic_packet_specializes_to_the_same_object():
    x = expectation_quantum(PacketMoments.symbolic(), parse_weyl("q^2*p"))
    assert PacketMoments.symbolic().specialize(x) is x


def _random_float_packets(count, seed=1):
    rng = random.Random(seed)
    while count:
        hbar = rng.choice([1.0, 0.1, 0.3, 0.02])
        packet = PacketMoments(0.0, 0.0, rng.uniform(0.5, 2), rng.uniform(0.5, 2), hbar=hbar)
        if packet.nu_value() > 1.01:
            count -= 1
            yield packet


def test_float_packet_nu_is_the_exact_rational():
    packet = PacketMoments(0, 0, 0.7, 1.3, hbar=0.1)
    assert packet.nu == 2 * Fraction(0.7) * Fraction(1.3) / Fraction(0.1)
    assert packet.nu_value() == 18.2
    for packet in _random_float_packets(50, seed=2):
        exact = 2 * Fraction(packet.dQ) * Fraction(packet.dP) / Fraction(packet.hbar)
        assert packet.nu == exact and packet.nu_value() == float(exact)


def test_uncertainty_check_reads_the_exact_nu():
    # exact nu = 1 - 5.5e-17 rounds to the float 1.0, yet the packet lies
    # below the bound; fock_state and the multipliers refuse it as well
    packet = PacketMoments(0.8, -0.1, 1.3, 1 / (2 * 1.3), hbar=1.0)
    assert packet.nu < 1 and packet.nu_value() == 1.0
    for call in (packet.require_quantum, lambda: fock_state(packet, cutoff=64),
                 lambda: solve_multipliers_quantum(packet)):
        with pytest.raises(DomainError, match="nu = 1 - 5.47e-17 violates"):
            call()
    # the exact bound itself passes, and only the strict check refuses it
    minimal = PacketMoments(0.8, -0.1, 1.25, 0.5, hbar=1.25)
    assert minimal.nu == 1
    minimal.require_quantum()
    with pytest.raises(PureStateLimitError):
        minimal.require_quantum(strict=True)
    # exact nu = 1 + 9e-17 lies above the bound, but its float nu is 1.0, so
    # the multipliers would read Lnu = inf: the strict check refuses it too
    above = PacketMoments(0, 0, 1.3, 0.38461538461538464, hbar=1.0)
    assert above.nu > 1 and above.bindings()["nu"] == 1.0
    above.require_quantum()
    for call in (lambda: above.require_quantum(strict=True),
                 lambda: solve_multipliers_quantum(above)):
        with pytest.raises(PureStateLimitError):
            call()


def test_commutator_moments_of_float_packets_are_exactly_half_hbar():
    # <q p> = i hbar/2 holds exactly when nu enters as the exact rational;
    # a rounded float nu missed it on about one packet in five
    for packet in _random_float_packets(200):
        half = packet.hbar / 2
        assert expectation_value(packet, parse_weyl("q*p")).imag == half
        assert expectation_value(packet, parse_weyl("p*q")).imag == -half


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["Q", "P", "dQ", "dP", "hbar"])
def test_packet_rejects_non_finite_values(field, bad):
    values = {"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 1.0}
    values[field] = bad
    with pytest.raises(DomainError, match=f"^{field} must be finite, got {bad}$"):
        PacketMoments(**values)


def test_non_finite_packet_fails_before_any_route():
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="^Q must be finite"):
            expectation_value(PacketMoments(bad, 0, 1, 1, hbar=1), parse_weyl("q"))
    # symbolic fields are unaffected
    assert PacketMoments(Expr.symbol("Q"), 0.5, 1.0, 1.5, hbar=1.0).is_symbolic


def test_expectation_matches_fock_oracle(numeric_packet):
    state = fock_state(numeric_packet, degree=6)
    rng = random.Random(99)
    for _ in range(12):
        word = "".join(rng.choice("qp") for _ in range(rng.randint(1, 6)))
        engine = expectation_value(numeric_packet, WeylPolynomial.from_word(word))
        oracle = fock_expectation(state, [(1.0, word)])
        assert engine == pytest.approx(oracle, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_pure_state_and_domain():
    assert entropy_quantum(1.0) == 0.0
    with pytest.raises(DomainError):
        entropy_quantum(0.99)


def test_entropy_asymptote():
    nu = 1e3
    assert entropy_quantum(nu) == pytest.approx(math.log(nu) + 1 - math.log(2), rel=1e-2)


def test_entropy_derivative():
    for nu in (2.0, 5.0, 50.0):
        h = 1e-5
        numeric = (entropy_quantum(nu + h) - entropy_quantum(nu - h)) / (2 * h)
        assert numeric == pytest.approx(0.5 * math.log((nu + 1) / (nu - 1)), abs=1e-8)
        assert numeric > 0


def test_entropy_equals_weight_sum():
    for nu in (2.0, 5.0, 20.0):
        assert entropy_weight_sum(nu) == pytest.approx(entropy_quantum(nu), abs=1e-9)


def test_entropy_weight_sum_refuses_past_term_cap():
    # the sum would need about 1.8e8 terms, past the 1e7 cap
    with pytest.raises(DomainError):
        entropy_weight_sum(1e7)


def test_entropy_legendre_cross_check(numeric_packet):
    assert entropy_from_multipliers(numeric_packet) == pytest.approx(
        entropy_quantum(numeric_packet.nu_value()), abs=1e-10
    )


def test_entropy_legendre_form_far_from_origin():
    # ln Z and lam1 Q cancel catastrophically at Q = 1e7 unless centred
    packet = PacketMoments(1e7, 0, 1, 1, hbar=1)
    assert entropy_from_multipliers(packet) == pytest.approx(entropy_quantum(2), rel=1e-12)


def test_stationarity_identity(sym_packet):
    from mepack.classical import solve_multipliers_classical

    assert stationarity_defect(solve_multipliers_quantum(sym_packet)).is_zero()
    assert stationarity_defect(solve_multipliers_classical(sym_packet)).is_zero()


# ---------------------------------------------------------------------------
# ground wavefunction
# ---------------------------------------------------------------------------


def test_ground_wavefunction_normalized(numeric_packet):
    from numpy.polynomial.legendre import leggauss

    b = numeric_packet.bindings()
    x, w = leggauss(400)
    half = 12 * b["dQ"]
    total = sum(
        wi * abs(ground_wavefunction(numeric_packet, b["Q"] + half * xi)) ** 2
        for xi, wi in zip(x, w)
    ) * half
    assert total == pytest.approx(1.0, abs=1e-10)


def test_ground_wavefunction_variance(numeric_packet):
    from numpy.polynomial.legendre import leggauss

    b = numeric_packet.bindings()
    x, w = leggauss(400)
    half = 12 * b["dQ"]
    mean_sq = sum(
        wi * (half * xi) ** 2 * abs(ground_wavefunction(numeric_packet, b["Q"] + half * xi)) ** 2
        for xi, wi in zip(x, w)
    ) * half
    assert mean_sq == pytest.approx(b["dQ"] ** 2 / b["nu"], rel=1e-10)


def test_ground_wavefunction_minimal_packet_matches_fock():
    # at nu = 1 the packet is |0><0|; <q^2> from the Fock oracle equals Q^2 + dQ^2
    pk = PacketMoments(0.8, -0.1, 1.25, 0.5, hbar=1.25)
    assert pk.nu == 1
    state = fock_state(pk, degree=2, cutoff=64)
    got = fock_expectation(state, parse_weyl("q^2"))
    assert got.real == pytest.approx(0.8 ** 2 + 1.25 ** 2, rel=1e-12)
    # the wavefunction's |psi|^2 variance at nu = 1 is dQ^2 itself
    b = pk.bindings()
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(400)
    half = 12 * b["dQ"]
    mean_sq = sum(
        wi * (half * xi) ** 2 * abs(ground_wavefunction(pk, b["Q"] + half * xi)) ** 2
        for xi, wi in zip(x, w)
    ) * half
    assert mean_sq == pytest.approx(b["dQ"] ** 2, rel=1e-10)
