"""The arithmetic that Scalar, Expr and the ordered polynomial rings share."""

from fractions import Fraction

import pytest

from mepack.algebra import (
    Expr,
    LadderPolynomial,
    ParseError,
    PhasePolynomial,
    Scalar,
    WeylPolynomial,
    parse_weyl,
)

_I_HBAR = WeylPolynomial.q() * WeylPolynomial.p() - WeylPolynomial.p() * WeylPolynomial.q()


def test_negative_power_of_an_operator_raises():
    with pytest.raises(ZeroDivisionError):
        WeylPolynomial.q() ** -1
    with pytest.raises(ZeroDivisionError):
        WeylPolynomial() ** -1
    with pytest.raises(ParseError, match="negative power of a non-scalar"):
        parse_weyl("q^-1")


def test_zero_polynomials_are_falsy():
    assert not WeylPolynomial()
    assert not LadderPolynomial.constant(0)
    assert not (PhasePolynomial.q() - PhasePolynomial.q())
    assert WeylPolynomial.q() and _I_HBAR


def test_complex_scalar_power_makes_logarithmically_many_products(monkeypatch):
    products = 0
    mul = Scalar.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert Scalar(1, 1) ** 1000 == 2 ** 500  # (1 + i)^2 = 2i, and i^500 = 1
    assert products <= 20


def test_division_by_a_scalar_polynomial():
    assert parse_weyl("q/(q*p - p*q)") == parse_weyl("q/(i*hbar)")
    assert WeylPolynomial.q() / _I_HBAR == parse_weyl("q/(i*hbar)")
    assert _I_HBAR ** -2 == parse_weyl("-1/hbar^2")
    assert 1 / LadderPolynomial.constant(Expr.symbol("nu")) == LadderPolynomial.constant(
        Expr.symbol("nu", -1))
    with pytest.raises(ZeroDivisionError):
        WeylPolynomial.q() / WeylPolynomial.p()
    with pytest.raises(ZeroDivisionError):
        2 / WeylPolynomial.q()


def test_mixed_operands_reach_the_reflected_method():
    q, hbar = WeylPolynomial.q(), Expr.symbol("hbar")
    assert hbar - q == parse_weyl("hbar - q")
    assert 1 - q == parse_weyl("1 - q")
    assert hbar / WeylPolynomial.constant(2) == parse_weyl("hbar/2")
    assert Scalar(2) - hbar == 2 - hbar
    assert Fraction(1, 2) / Scalar(0, 1) == Scalar(0, Fraction(-1, 2))
    with pytest.raises(TypeError):
        q - "q"


@pytest.mark.parametrize("cls", [WeylPolynomial, LadderPolynomial, PhasePolynomial])
def test_polynomial_power_matches_repeated_products(cls):
    x = cls({(1, 0): Expr.symbol("V1"), (0, 1): 1, (0, 0): Expr.i()})
    out = cls.constant(1)
    for n in range(8):
        assert x ** n == out
        out = out * x


@pytest.mark.parametrize("value", [Scalar(2), Expr.symbol("Q"), WeylPolynomial.q()])
def test_exponent_must_be_an_int(value):
    with pytest.raises(TypeError, match="exponent must be an int"):
        value ** 1.5


@pytest.mark.parametrize("value, name", [
    (Scalar(2), "re"), (Expr.symbol("Q"), "_terms"), (WeylPolynomial.q(), "_terms"),
])
def test_exact_values_are_immutable(value, name):
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, None)
