"""The arithmetic that Scalar, Expr and the ordered polynomial rings share,
and the term map under Expr, the ordered polynomials and NumberPolynomial."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import (
    Expr,
    LadderPolynomial,
    NumberPolynomial,
    ParseError,
    PhasePolynomial,
    Scalar,
    WeylPolynomial,
    parse_weyl,
)
from mepack.algebra.expression import _normalize_powers

_I_HBAR = WeylPolynomial.q() * WeylPolynomial.p() - WeylPolynomial.p() * WeylPolynomial.q()


def test_negative_power_of_an_operator_raises():
    with pytest.raises(ZeroDivisionError):
        WeylPolynomial.q() ** -1
    with pytest.raises(ZeroDivisionError):
        WeylPolynomial() ** -1
    with pytest.raises(ParseError, match="negative power of a non-scalar"):
        parse_weyl("q^-1")


@pytest.mark.parametrize("exponent", [-1, -3])
def test_negative_power_of_zero_scalar_is_the_inverse_error(exponent):
    with pytest.raises(ZeroDivisionError, match="inverse of zero Scalar"):
        Scalar(0) ** exponent
    with pytest.raises(ZeroDivisionError, match="inverse of zero Scalar"):
        Scalar(0).inverse()


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


def test_cold_moment_constructs_no_fraction(monkeypatch):
    # perf guard: Scalar arithmetic is int arithmetic; <q^7 p^7> made 3048
    # Fractions when a Scalar held its parts as two of them
    import fractions

    import mepack.algebra.numberpoly as numberpoly
    import mepack.algebra.words as words
    import mepack.classical as classical
    import mepack.quantum as quantum

    for module in (quantum, classical, words, numberpoly):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    quantum.weyl_monomial_expectation(7, 7)
    assert made == []


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


@pytest.mark.parametrize("scalar_first, reflected", [
    (lambda: Scalar(1) + Expr.symbol("Q"), lambda: Expr.symbol("Q") + 1),
    (lambda: Scalar(2) * Expr.symbol("Q"), lambda: Expr.symbol("Q") * 2),
    (lambda: Scalar(2) * WeylPolynomial.q(), lambda: WeylPolynomial.q() * 2),
], ids=["scalar+expr", "scalar*expr", "scalar*weyl"])
def test_scalar_leaves_other_exact_types_to_their_reflected_method(scalar_first, reflected):
    assert scalar_first() == reflected()


class _Reflected:
    """An operand that only its own reflected methods can combine."""

    def __radd__(self, other):
        return "radd"

    def __rmul__(self, other):
        return "rmul"


@pytest.mark.parametrize("value", [Scalar(2), Expr.symbol("Q"), WeylPolynomial.q(),
                                   LadderPolynomial.from_word(["A"]), PhasePolynomial.q()],
                         ids=lambda value: type(value).__name__)
def test_an_operand_the_ring_refuses_reaches_its_reflected_method(value):
    assert value + _Reflected() == "radd"
    assert value * _Reflected() == "rmul"
    with pytest.raises(TypeError):
        value + object()
    with pytest.raises(TypeError):
        value * object()
    with pytest.raises(TypeError):
        object() * value


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
    (NumberPolynomial({1: 2}), "_terms"),
])
def test_exact_values_are_immutable(value, name):
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, None)


# -- the shared term map ------------------------------------------------------

_NUMBERS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), 1j])
_EXPR_COEFFS = st.sampled_from([
    0, 1, -1, 2, Expr.symbol("Q"), -Expr.symbol("Q"), Expr.symbol("nu", -1), Expr.i(),
])
_MONOS = st.sampled_from([
    _normalize_powers(powers) for powers in
    ({}, {"Q": 1}, {"Q": 2, "s": 1}, {"nu": -1}, {"dP": 1, "Q": 1}, {"V3": 1, "s": 1})
])
_ORDERED_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 2))

# (class, keys, coefficients) of the raw dicts given to each public constructor
_TERM_MAPS = {
    Expr: (_MONOS, _NUMBERS),
    WeylPolynomial: (_ORDERED_KEYS, _EXPR_COEFFS),
    LadderPolynomial: (_ORDERED_KEYS, _EXPR_COEFFS),
    NumberPolynomial: (st.integers(0, 3), _EXPR_COEFFS.map(Expr.coerce)),
}
_MAPS = [lambda c: c * 2, lambda c: c * 0, lambda c: c - 1]


def _term_dict(x) -> dict:
    return x.falling_coefficients() if isinstance(x, NumberPolynomial) else dict(x.terms())


def _assert_clean(x):
    """No zero coefficient; the public constructor of its own dict rebuilds
    an equal value with the same hash, as does a constant's number."""
    terms = _term_dict(x)
    assert all(c != 0 for c in terms.values()), x
    rebuilt = type(x)(terms)
    assert rebuilt == x and hash(rebuilt) == hash(x)
    if isinstance(x, Expr) and x.is_constant():
        assert x == x.constant_value() and hash(x) == hash(x.constant_value())


@pytest.mark.parametrize("cls", list(_TERM_MAPS), ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_term_map_result_is_clean(cls, data):
    keys, coeffs = _TERM_MAPS[cls]
    raw = st.dictionaries(keys, coeffs, max_size=4)
    x, y = cls(data.draw(raw)), cls(data.draw(raw))
    results = [x, y] + [x.map_coefficients(fn) for fn in _MAPS]
    if cls is not NumberPolynomial:
        results += [x + y, x + 1, -x, x - x, x * y, 2 * x]
        shifted = (x + y) - y
        assert shifted == x and hash(shifted) == hash(x)
    if cls is Expr:
        results += [x.diff("Q"), x.substitute({"Q": y}), *x.as_poly_in("Q").values()]
    for result in results:
        _assert_clean(result)


def test_expr_coerces_its_coefficients():
    assert Expr({(): 3}) == 3 and hash(Expr({(): 3})) == hash(3)
    assert Expr({(): 0, (("Q", 1),): Fraction(1, 2)}) == Expr.symbol("Q") / 2
    assert not Expr({(): 0.0})


def test_number_polynomial_has_no_arithmetic():
    with pytest.raises(TypeError):
        NumberPolynomial({1: 2}) + 1
    with pytest.raises(TypeError):
        -NumberPolynomial({1: 2})


_LAURENT = st.sampled_from([
    _normalize_powers(powers) for powers in
    ({}, {"Q": 1}, {"Q": -2, "s": 1}, {"nu": -1, "s": 1}, {"nu": 2, "Q": 1},
     {"dP": 1, "s": 1}, {"Q": 3, "nu": -1, "dQ": 2})
])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_LAURENT, _NUMBERS, max_size=5),
       st.sampled_from(["Q", "nu", "s", "dP", "m"]), st.integers(-2, 3))
def test_drop_symbol_and_coefficient_of_match_a_term_by_term_reference(terms, name, power):
    x = Expr(terms)
    coefficient, dropped = Expr(), Expr()
    for mono, coeff in x.terms():
        powers = dict(mono)
        exponent = powers.pop(name, 0)
        term = Expr.monomial(coeff, **powers)
        if exponent == power:
            coefficient = coefficient + term
        if exponent == 0:
            dropped = dropped + term
    assert x.coefficient_of(name, power) == coefficient
    assert x.drop_symbol(name) == dropped
    _assert_clean(x.coefficient_of(name, power))
