"""Ladder algebra, the oscillator substitution, and number polynomials."""

import random
from fractions import Fraction

import numpy as np
import pytest

from mepack.algebra import (
    Expr,
    LadderPolynomial,
    NumberPolynomial,
    WeylPolynomial,
    commutator,
    diagonal_part,
    parse_ladder,
    parse_weyl,
    to_ladder,
)
from mepack.algebra.numberpoly import stirling_first_signed, stirling_second


def test_defining_relation():
    a, ad = parse_ladder("A"), parse_ladder("Ad")
    assert a * ad == ad * a + 1
    assert commutator_ladder(a, ad) == LadderPolynomial.constant(1)


def commutator_ladder(x, y):
    return x * y - y * x


def test_to_ladder_of_q():
    assert to_ladder(WeylPolynomial.q()) == parse_ladder("Q + dQ*s*(A + Ad)")


def test_to_ladder_of_constant():
    assert to_ladder(WeylPolynomial.constant(1)) == LadderPolynomial.constant(1)


def test_to_ladder_symmetrized_qp():
    got = to_ladder(parse_weyl("q*p + p*q"))
    expected = parse_ladder(
        "2*Q*P + 2*P*dQ*s*(A+Ad) - 2*i*Q*dP*s*(A-Ad) - 2*i*dQ*dP*nu^-1*(A^2 - Ad^2)"
    )
    assert got == expected


def test_to_ladder_is_homomorphism():
    # the image of [q, p] must be the rewritten i*hbar = 2i*dQ*dP/nu
    lhs = commutator_ladder(to_ladder(WeylPolynomial.q()), to_ladder(WeylPolynomial.p()))
    assert lhs == parse_ladder("2*i*dQ*dP*nu^-1")
    rng = random.Random(11)
    for _ in range(6):
        a = rng.randint(0, 2)
        b = rng.randint(0, 2)
        c = rng.randint(0, 2)
        x = WeylPolynomial({(a, b): Expr.number(1), (0, c): Expr.number(Fraction(1, 2))})
        y = WeylPolynomial({(b, a): Expr.number(-2)})
        assert to_ladder(x * y) == to_ladder(x) * to_ladder(y)


def test_diagonal_part_examples():
    # symmetrized qp has constant diagonal 2QP
    d = diagonal_part(to_ladder(parse_weyl("q*p + p*q")))
    assert d.monomial_coefficients() == {0: parse_expression_2qp()}
    # (A + Ad)^2 -> 2k + 1
    sq = parse_ladder("(A + Ad)^2")
    nk = diagonal_part(sq)
    assert nk.as_expression() == 2 * Expr.symbol("k") + 1
    # A - Ad has no balanced word
    assert diagonal_part(parse_ladder("A - Ad")).is_zero()


def parse_expression_2qp():
    return 2 * Expr.symbol("Q") * Expr.symbol("P")


def test_diagonal_matches_matrix_elements():
    # <k|(A+Ad)^2|k> on a 10-dimensional truncation
    n = 10
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    m = (a + a.T) @ (a + a.T)
    poly = diagonal_part(parse_ladder("(A + Ad)^2"))
    for k in range(n - 2):
        assert poly.evaluate_at(k) == pytest.approx(m[k, k])


def test_stirling_inversion():
    for m in range(8):
        for n in range(8):
            total = sum(
                stirling_first_signed(m, j) * stirling_second(j, n) for j in range(9)
            )
            assert total == (1 if m == n else 0)


def test_number_polynomial_roundtrip():
    poly = NumberPolynomial({0: Expr.number(3), 2: Expr.symbol("Q"), 4: Expr.number(Fraction(1, 3))})
    rebuilt = NumberPolynomial.from_monomial(poly.monomial_coefficients())
    assert rebuilt == poly


def test_number_polynomial_evaluation():
    poly = NumberPolynomial({2: Expr.number(1)})  # k(k-1)
    assert poly.evaluate_at(5) == 20
    assert poly.evaluate_at(1) == 0


def test_diagonal_of_symmetric_words_has_integer_nu_powers():
    # diagonal parts of symmetric real monomials carry only even powers of s,
    # i.e. integer powers of 1/nu
    for text in ("q^2", "p^2", "q*p + p*q", "q^2*p^2 + p^2*q^2", "p*q^2*p", "q*p^2*q"):
        d = diagonal_part(to_ladder(parse_weyl(text)))
        for _, coeff in d.falling_coefficients().items():
            assert "s" not in coeff.symbols()
