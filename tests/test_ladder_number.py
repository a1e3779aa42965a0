"""Ladder algebra, the oscillator substitution, and the number-basis diagonal."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import (
    Expr,
    LadderPolynomial,
    WeylPolynomial,
    diagonal_part,
    falling_to_powers,
    parse_ladder,
    parse_weyl,
    stirling_first_signed,
    to_ladder,
)


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
    assert d == {0: 2 * Expr.symbol("Q") * Expr.symbol("P")}
    # (A + Ad)^2 -> 1 + 2 Ad A, which is 2k + 1
    falling = diagonal_part(parse_ladder("(A + Ad)^2"))
    assert falling == {0: 1, 1: 2}
    assert falling_to_powers(falling) == {0: 1, 1: 2}
    # A - Ad has no balanced word
    assert diagonal_part(parse_ladder("A - Ad")) == {}


def test_diagonal_matches_matrix_elements():
    import numpy as np

    # <k|(A+Ad)^2|k> on a 10-dimensional truncation
    n = 10
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    matrix = (a + a.T) @ (a + a.T)
    falling = diagonal_part(parse_ladder("(A + Ad)^2"))
    for k in range(n - 2):
        # k(k-1)...(k-m+1), which is 0 for m > k
        value = sum(c.evaluate({}) * math.prod(range(k - m + 1, k + 1))
                    for m, c in falling.items())
        assert value == pytest.approx(matrix[k, k])


@lru_cache(maxsize=None)
def _stirling_second(n, m):
    """S(n, m): k^n = sum_m S(n, m) k(k-1)...(k-m+1)."""
    if n == m == 0:
        return 1
    if n == 0 or m == 0:
        return 0
    return m * _stirling_second(n - 1, m) + _stirling_second(n - 1, m - 1)


def test_stirling_inversion():
    for m in range(8):
        for n in range(8):
            total = sum(
                stirling_first_signed(m, j) * _stirling_second(j, n) for j in range(9)
            )
            assert total == (1 if m == n else 0)


def _stirling_sum(falling):
    """sum_m c_m k(k-1)...(k-m+1) in powers of k: the signed Stirling numbers
    s(m, n) read off the product, expanded one factor (k - j) at a time."""
    out = {}
    for m, c in falling.items():
        product = [1]  # coefficients of k^0, k^1, ...
        for j in range(m):  # times (k - j)
            product = [a - j * b for a, b in zip([0] + product, product + [0])]
        for n, s in enumerate(product):
            if s:
                out[n] = out.get(n, 0) + c * s
    return {n: c for n, c in out.items() if c}


_FALLING_KEYS = st.integers(0, 9)
_INT_DIAGONALS = st.dictionaries(_FALLING_KEYS, st.integers(-40, 40).filter(bool), max_size=5)
_EXPR_DIAGONALS = st.dictionaries(_FALLING_KEYS, st.sampled_from([
    Expr.number(1), Expr.number(Fraction(-1, 3)), Expr.symbol("Q"), -Expr.symbol("Q"),
    Expr.symbol("nu", -1), Expr.i() * Expr.symbol("dP"),
]), max_size=5)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_INT_DIAGONALS, _EXPR_DIAGONALS))
def test_falling_to_powers_matches_the_stirling_sum(falling):
    powers = falling_to_powers(falling)
    assert powers == _stirling_sum(falling)
    # no zero coefficient, and the coefficients keep their type
    assert all(powers.values())
    assert {type(c) for c in powers.values()} <= {type(c) for c in falling.values()}


def test_diagonal_of_symmetric_words_has_integer_nu_powers():
    # diagonal parts of symmetric real monomials carry only even powers of s,
    # i.e. integer powers of 1/nu
    for text in ("q^2", "p^2", "q*p + p*q", "q^2*p^2 + p^2*q^2", "p*q^2*p", "q*p^2*q"):
        for coeff in diagonal_part(to_ladder(parse_weyl(text))).values():
            assert "s" not in coeff.symbols()
