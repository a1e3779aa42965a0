"""Commutative Poisson layer and the noncommutative Weyl algebra."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import (
    Expr,
    LadderPolynomial,
    PhasePolynomial,
    WeylPolynomial,
    commutator,
    parse_phase,
    parse_weyl,
    poisson_bracket,
)
from mepack.algebra.words import contract, swap_counts


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------


def test_poisson_q_with_free_hamiltonian():
    h = parse_phase("p^2/(2*m) + V0 + V1*q + (1/2)*V2*q^2")
    assert poisson_bracket(PhasePolynomial.q(), h) == parse_phase("p/m")


def test_poisson_antisymmetry_trivial():
    q = PhasePolynomial.q()
    assert poisson_bracket(q, q).is_zero()


def test_poisson_cubic_potential_term():
    f = parse_phase("(1/6)*V3*q^3")
    assert poisson_bracket(PhasePolynomial.p(), f) == parse_phase("-(1/2)*V3*q^2")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_poisson_leibniz(a, b, c, d):
    f = PhasePolynomial({(a, b): Expr.number(1)})
    g = PhasePolynomial({(c, d): Expr.number(2)})
    h = parse_phase("q^2*p + 3*p^2")
    assert poisson_bracket(f * g, h) == f * poisson_bracket(g, h) + poisson_bracket(f, h) * g


# ---------------------------------------------------------------------------
# Weyl normal ordering
# ---------------------------------------------------------------------------


def test_defining_commutator():
    assert commutator(WeylPolynomial.q(), WeylPolynomial.p()) == parse_weyl("i*hbar")


def test_commutator_p_q2_brute_force_and_matrix():
    got = commutator(WeylPolynomial.p(), parse_weyl("q^2"))
    assert got == parse_weyl("-2*i*hbar*q")
    # independent check on a small truncated matrix representation
    n = 4
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    q = (a + a.T) / np.sqrt(2)
    p = -1j * (a - a.T) / np.sqrt(2)
    lhs = p @ (q @ q) - (q @ q) @ p
    rhs = -2j * q
    assert np.allclose(lhs[: n - 2, : n - 2], rhs[: n - 2, : n - 2], atol=1e-12)


def test_fifth_derivative_commutator_identity():
    lhs = commutator(parse_weyl("(3/2)*V3*V4/m^2*(q^3*p + p*q^3)"), parse_weyl("p^2/(2*m)")) \
        + commutator(parse_weyl("(1/2)*V3*V4/m^3*(1/3)*q^3"), parse_weyl("p^3"))
    rhs = parse_weyl("i*hbar*(1/2)*V3*V4/m^3*(21*p*q^2*p - 11*hbar^2)")
    assert lhs == rhs


@lru_cache(maxsize=None)
def _enumerated_swaps(nl, nr):
    """Reference multiplicities by brute force: rewrite the word L^nl R^nr
    one disordered adjacent pair at a time, L R -> R L + (contraction),
    until no pair is left; {j: copies of the word with j pairs removed}."""
    if nl == 0 or nr == 0:
        return {0: 1}
    start = ("L",) * nl + ("R",) * nr
    pending = {start: {0: 1}}
    done = {}
    while pending:
        word, jcounts = pending.popitem()
        for idx in range(len(word) - 1):
            if word[idx] == "L" and word[idx + 1] == "R":
                swapped = word[:idx] + ("R", "L") + word[idx + 2:]
                contracted = word[:idx] + word[idx + 2:]
                for target, shift in ((swapped, 0), (contracted, 1)):
                    slot = pending.setdefault(target, {})
                    for j, c in jcounts.items():
                        slot[j + shift] = slot.get(j + shift, 0) + c
                break
        else:
            for j, c in jcounts.items():
                done[j] = done.get(j, 0) + c
    return done


def test_swap_counts_match_closed_form():
    for b in range(8):
        for a in range(8):
            assert swap_counts(b, a) == _enumerated_swaps(b, a)


def test_products_match_word_enumeration():
    # Y^b X^a = sum_j n_j c^j X^(a-j) Y^(b-j), n_j from the brute-force rewrite
    minus_i_hbar = Expr.number(-1) * Expr.i() * Expr.symbol("hbar")
    algebras = (
        (WeylPolynomial, minus_i_hbar),
        (LadderPolynomial, Expr.number(1)),  # A^b Ad^a
        (PhasePolynomial, Expr()),
    )
    for b in range(8):
        for a in range(8):
            counts = _enumerated_swaps(b, a)
            for cls, c in algebras:
                product = cls({(0, b): 1}) * cls({(a, 0): 1})
                expected = cls({(a - j, b - j): c ** j * n for j, n in counts.items()})
                assert product == expected, (cls.__name__, a, b)


def test_weyl_symbol_is_the_symmetric_ordering():
    # McCoy: the operator with symbol q^a p^b is the mean of the C(a+b, a)
    # distinct words with a q's and b p's, which fixes the sign of -i hbar/2
    for n in range(7):
        for a in range(n + 1):
            total = WeylPolynomial()
            for places in itertools.combinations(range(n), a):
                word = ("q" if i in places else "p" for i in range(n))
                total = total + WeylPolynomial.from_word(word)
            symmetric = total.map_coefficients(lambda c: c / math.comb(n, a))
            operator = WeylPolynomial.from_symbol(PhasePolynomial({(a, n - a): 1}))
            assert operator == symmetric, (a, n - a)


_monomial_terms = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(max_denominator=6).filter(bool).map(Expr.number),
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(_monomial_terms, st.fractions(max_denominator=6).filter(bool))
def test_contracting_with_minus_c_undoes_c(terms, x):
    c = Expr.number(x) * Expr.i() * Expr.symbol("hbar")
    assert contract(contract(terms, c), -c) == terms


def test_normal_ordering_idempotent():
    w = parse_weyl("q^2*p^3 + i*hbar*q*p + 5")
    rebuilt = WeylPolynomial(dict(w.terms()))
    assert rebuilt == w
    # re-reducing each canonical word changes nothing
    total = WeylPolynomial()
    for (a, b), c in w.terms():
        total = total + WeylPolynomial.from_word("q" * a + "p" * b, c)
    assert total == w


def _random_weyl(rng, degree=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a) if degree - a > 0 else 0
        terms[(a, b)] = Expr.number(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return WeylPolynomial(terms)


def test_ring_distributivity_and_jacobi():
    rng = random.Random(7)
    for _ in range(12):
        x, y, z = (_random_weyl(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert commutator(x, y + z) == commutator(x, y) + commutator(x, z)
        jacobi = (
            commutator(commutator(x, y), z)
            + commutator(commutator(y, z), x)
            + commutator(commutator(z, x), y)
        )
        assert jacobi.is_zero()


def test_classical_shadow_of_commutator():
    # dropping hbar from [X, Y]/(i hbar) reproduces the Poisson bracket
    rng = random.Random(21)
    inv_ihbar = Expr.number(1) / (Expr.i() * Expr.symbol("hbar"))
    for _ in range(10):
        x, y = _random_weyl(rng, 4), _random_weyl(rng, 4)
        shadow = commutator(x, y).map_coefficients(
            lambda c: (c * inv_ihbar).drop_symbol("hbar")
        ).classical()
        classical = poisson_bracket(
            x.classical().map_coefficients(lambda c: c.drop_symbol("hbar")),
            y.classical().map_coefficients(lambda c: c.drop_symbol("hbar")),
        )
        assert shadow == classical


def test_matrix_faithfulness_of_canonical_form():
    # canonical form evaluated with Fock matrices (hbar = 1) must agree with
    # literal word-by-word multiplication of the original words
    rng = random.Random(5)
    n = 4 + 8
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    qm = (a + a.T) / np.sqrt(2)
    pm = -1j * (a - a.T) / np.sqrt(2)

    def word_matrix(word):
        out = np.eye(n, dtype=complex)
        for letter in word:
            out = out @ (qm if letter == "q" else pm)
        return out

    for _ in range(20):
        word = "".join(rng.choice("qp") for _ in range(rng.randint(1, 4)))
        canon = WeylPolynomial.from_word(word)
        direct = word_matrix(word)
        reduced = np.zeros((n, n), dtype=complex)
        for (x, y), c in canon.terms():
            reduced += c.evaluate({"hbar": 1.0}) * word_matrix("q" * x + "p" * y)
        block = slice(0, n - 6)
        assert np.max(np.abs(direct[block, block] - reduced[block, block])) < 1e-10


def test_adjoint_involution_and_products():
    rng = random.Random(3)
    for _ in range(8):
        x, y = _random_weyl(rng), _random_weyl(rng)
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
