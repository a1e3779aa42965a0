import fractions
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import Expr, ParseError, Scalar, format_expression, parse_expression
from mepack.algebra.expression import (
    _mono_mul, _normalize_powers, _symbol_rank, is_known_symbol, sqrt_monomial, sum_of_products,
)


def test_scalar_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(1, 7))
    b = Scalar(Fraction(2, 5), Fraction(-3, 11))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == Scalar(1)
    assert Scalar(0, 1) ** 2 == Scalar(-1)
    assert (a ** 3) * (a ** -3) == Scalar(1)


def test_scalar_conjugate_and_complex():
    z = Scalar(Fraction(3, 2), Fraction(-5, 4))
    assert z.conjugate().im == Fraction(5, 4)
    assert z.to_complex() == 1.5 - 1.25j


def test_float_coercion_is_exact_dyadic():
    assert Scalar(0.5) == Scalar(Fraction(1, 2))
    assert Scalar(0.1).re == Fraction(0.1)  # exact binary value, not 1/10


def test_expression_canonical_merge():
    q = Expr.symbol("Q")
    assert q + q == 2 * q
    assert q - q == Expr()
    assert (q + 1) * (q - 1) == q * q - 1


def test_s_square_rewrite():
    s, nu = Expr.symbol("s"), Expr.symbol("nu")
    assert s * s == nu ** -1
    assert s ** 3 == s * nu ** -1
    assert s ** 4 == nu ** -2
    # the rewrite is consistent for inverse powers as well: 1/s = nu * s
    assert s.inverse() == nu * s


def test_substitute_polynomial_and_monomial():
    hbar, nu = Expr.symbol("hbar"), Expr.symbol("nu")
    dq, dp = Expr.symbol("dQ"), Expr.symbol("dP")
    e = hbar ** 2 + hbar ** -1
    sub = e.substitute({"hbar": 2 * dq * dp / nu})
    assert sub == 4 * dq ** 2 * dp ** 2 * nu ** -2 + Expr.number(Fraction(1, 2)) * nu / (dq * dp)
    with pytest.raises(ZeroDivisionError):
        (hbar ** -1).substitute({"hbar": dq + dp})


def test_evaluate_and_unbound_symbol():
    e = parse_expression("Q^2 + i*P")
    assert e.evaluate({"Q": 3.0, "P": 2.0}) == 9 + 2j
    with pytest.raises(KeyError):
        e.evaluate({"Q": 3.0})


def test_diff_laurent():
    nu = Expr.symbol("nu")
    assert (nu ** 3).diff("nu") == 3 * nu ** 2
    assert (nu ** -1).diff("nu") == -(nu ** -2)
    assert Expr.number(5).diff("nu").is_zero()


def test_sqrt_monomial():
    e = Expr.number(Fraction(1, 4)) * Expr.symbol("dQ") ** -2 * Expr.symbol("dP") ** -2
    assert sqrt_monomial(e) == Expr.number(Fraction(1, 2)) / (Expr.symbol("dQ") * Expr.symbol("dP"))
    with pytest.raises(ValueError):
        sqrt_monomial(Expr.symbol("dQ"))


def test_sqrt_monomial_exact_beyond_float_precision():
    root = 10**30 + 7
    assert sqrt_monomial(Expr.number(root**2)) == Expr.number(root)
    with pytest.raises(ValueError, match="not a rational square"):
        sqrt_monomial(Expr.number(root**2 + 1))


def test_unknown_symbol_rejected():
    with pytest.raises(KeyError):
        Expr.symbol("bogus")


@pytest.mark.parametrize("alias", ["V01", "V\u0661", "V1\n", "V", "V-1"])
def test_only_the_canonical_name_of_a_potential_coefficient_is_a_symbol(alias):
    # "V01", "V" + an Arabic-indic one and "V1\n" each took V1's rank, so the
    # order of V01*V1 depended on insertion and V01*V1 - V1*V01 was not 0
    assert not is_known_symbol(alias)
    with pytest.raises(KeyError):
        Expr.symbol(alias) * Expr.symbol("V1") - Expr.symbol("V1") * Expr.symbol(alias)
    if alias.strip() == alias:  # the parser skips whitespace: "V1\n*V1" is V1*V1
        with pytest.raises(ParseError):
            parse_expression(f"{alias}*V1") == parse_expression(f"V1*{alias}")


def test_unknown_names_raise_with_the_rank_table_warm():
    assert str(parse_expression("Q*V10*m*V2*hbar*V0")) == "hbar*m*V0*V2*V10*Q"
    for name in ("bogus", "V007", "v1", "V1 "):
        with pytest.raises(KeyError):
            Expr.symbol(name)
        with pytest.raises(KeyError):
            _symbol_rank(name)
        assert not is_known_symbol(name)


_scalars = st.fractions(max_denominator=7).map(Scalar)
_symbols = st.sampled_from(["Q", "P", "dQ", "dP", "nu", "m", "V3"])


@st.composite
def expressions(draw):
    out = Expr()
    for _ in range(draw(st.integers(0, 3))):
        term = Expr.number(draw(_scalars))
        for _ in range(draw(st.integers(0, 2))):
            term = term * Expr.symbol(draw(_symbols))
        out = out + term
    return out


@settings(max_examples=40, deadline=None)
@given(expressions(), expressions(), expressions())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a


# -- exact powers and substitution against repeated products ------------------

_complex_scalars = st.builds(
    Scalar, st.fractions(max_denominator=7), st.fractions(max_denominator=7)
).filter(lambda c: not c.is_zero())
_power_symbols = st.sampled_from(["Q", "dP", "nu", "s", "V3"])


@st.composite
def monomials(draw, min_exp=-3, max_exp=3):
    term = Expr.number(draw(_complex_scalars))
    for _ in range(draw(st.integers(0, 3))):
        term = term * Expr.symbol(draw(_power_symbols), draw(st.integers(min_exp, max_exp)))
    return term


@st.composite
def polynomials(draw):
    out = Expr()
    for _ in range(draw(st.integers(0, 3))):
        out = out + draw(monomials(min_exp=0, max_exp=2))
    return out


def _repeated_power(base: Expr, exponent: int) -> Expr:
    factor = base if exponent >= 0 else base.inverse()
    out = Expr.number(1)
    for _ in range(abs(exponent)):
        out = out * factor
    return out


@settings(max_examples=60, deadline=None)
@given(monomials(), st.integers(-6, 6))
def test_monomial_power_matches_repeated_products(base, exponent):
    assert base ** exponent == _repeated_power(base, exponent)


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.integers(0, 6))
def test_polynomial_power_matches_repeated_products(base, exponent):
    assert base ** exponent == _repeated_power(base, exponent)


@settings(max_examples=40, deadline=None)
@given(_complex_scalars, st.integers(-7, 7), st.integers(-2, 2), st.integers(1, 5))
def test_powers_of_s_apply_the_rewrite(coeff, s_exp, nu_exp, exponent):
    # odd and even powers of s, with s^2 -> 1/nu applied on the way
    base = Expr.number(coeff) * Expr.symbol("s", s_exp) * Expr.symbol("nu", nu_exp)
    assert base ** exponent == _repeated_power(base, exponent)
    assert base ** -exponent == _repeated_power(base, -exponent)


@settings(max_examples=40, deadline=None)
@given(_complex_scalars, st.integers(-8, 8))
def test_scalar_power_matches_repeated_products(base, exponent):
    out = Scalar(1)
    for _ in range(abs(exponent)):
        out = out * (base if exponent >= 0 else base.inverse())
    assert base ** exponent == out


def _substitute_term_by_term(expr: Expr, mapping) -> Expr:
    out = Expr()
    for mono, coeff in expr.terms():
        term = Expr.number(coeff)
        for sym, exp in mono:
            term = term * _repeated_power(mapping.get(sym, Expr.symbol(sym)), exp)
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_matches_term_by_term(data):
    expr = Expr()
    for _ in range(data.draw(st.integers(0, 4))):
        expr = expr + data.draw(monomials())
    mapping = {}
    for sym in sorted(expr.symbols()):
        if not data.draw(st.booleans()):
            continue
        negative = any(e < 0 for mono, _ in expr.terms() for s, e in mono if s == sym)
        # negative exponents need an invertible monomial
        rep = monomials() if negative else st.one_of(monomials(), polynomials())
        mapping[sym] = data.draw(rep)
    assert expr.substitute(mapping) == _substitute_term_by_term(expr, mapping)


# -- the product kernel against a term-by-term reference ---------------------

_kernel_symbols = st.sampled_from(["s", "nu", "Q", "dP", "V0", "V1", "V2", "V3"])


@st.composite
def laurent_expressions(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        powers = draw(st.dictionaries(_kernel_symbols, st.integers(-3, 3), max_size=4))
        terms[_normalize_powers(powers)] = draw(_complex_scalars)
    return Expr(terms)


def _products_term_by_term(pairs) -> dict:
    terms = {}
    for x, y in pairs:
        for m1, c1 in x.terms():
            for m2, c2 in y.terms():
                powers = dict(m1)
                for sym, exp in m2:
                    powers[sym] = powers.get(sym, 0) + exp
                mono = _normalize_powers(powers)
                terms[mono] = terms.get(mono, Scalar(0)) + c1 * c2
    return {mono: c for mono, c in terms.items() if not c.is_zero()}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(laurent_expressions(), laurent_expressions()), max_size=4), st.data())
def test_sum_of_products_matches_a_term_by_term_reference(pairs, data):
    # negated copies of some pairs cancel their products, in whole or in part
    pairs += [(-x, y) for x, y in pairs if data.draw(st.booleans())]
    warm = sum_of_products(pairs)
    _mono_mul.cache_clear()
    cold = sum_of_products(pairs)
    assert warm._terms == cold._terms == _products_term_by_term(pairs)
    assert repr(warm) == repr(cold)
    assert not any(c.is_zero() for c in warm._terms.values())
    for x, y in pairs:
        for m1 in x._terms:
            for m2 in y._terms:
                assert _mono_mul(m1, m2) == _mono_mul(m2, m1)


# -- hashing agrees with equality -----------------------------------------------


def test_numbers_and_their_scalars_hash_alike():
    assert Expr.number(1) == 1 and 1 in {Expr.number(1)}
    assert Expr() == 0 and 0 in {Expr()}
    assert hash(Scalar(1, 2)) == hash(1 + 2j)
    assert hash(Scalar(Fraction(-1, 2), -1)) == hash(-0.5 - 1j)
    assert {Expr.number(Fraction(3, 4)): "x"}[0.75] == "x"
    assert Scalar(Fraction(1, 3), 1) in {Scalar(Fraction(1, 3), 1)}


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), complex(float("nan")), complex(0, float("inf")),
])
def test_exact_values_never_equal_a_non_finite_number(value):
    for exact in (Scalar(1), Expr.number(1), Expr(), Expr.symbol("Q")):
        assert not exact == value and exact != value
        assert not value == exact and value != exact


_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(),
    _floats,
    st.builds(complex, _floats, _floats),
))
def test_scalar_and_expr_hash_like_the_equal_number(value):
    for exact in (Scalar.coerce(value), Expr.number(value)):
        assert exact == value
        assert hash(exact) == hash(value)


_MODULUS = sys.hash_info.modulus


def _complex_hash(re: Fraction, im: Fraction) -> int:
    """CPython's complex hash formula on the two parts' Fraction hashes."""
    width = sys.hash_info.width
    h = (hash(re) + sys.hash_info.imag * hash(im)) % (1 << width)
    h -= (h >> (width - 1)) << width
    return -2 if h == -1 else h


@pytest.mark.parametrize("value", [
    2.0 ** -1074, 1e300, 2 ** 64 + 1, -0.0,
    # denominators that the hash modulus divides hash as infinity
    Fraction(1, _MODULUS), Fraction(-5, 3 * _MODULUS), Fraction(_MODULUS + 1, _MODULUS ** 2),
])
def test_scalar_equals_and_hashes_like_every_equal_number(value):
    exact = Fraction(value)
    # Fraction compares exactly with int, float and complex
    for number in (exact, int(exact), float(exact), complex(float(exact))):
        equal = number == exact
        assert (Scalar(exact) == number) is equal and (number == Scalar(exact)) is equal
        if equal:
            assert hash(Scalar(exact)) == hash(number)
    assert repr(Scalar(exact).to_complex()) == repr(complex(float(exact)))
    imaginary = complex(0, float(exact))
    equal = float(exact) == exact
    assert (Scalar(0, exact) == imaginary) is equal and (imaginary == Scalar(0, exact)) is equal
    if equal:
        assert hash(Scalar(0, exact)) == hash(imaginary)
    # one part's denominator can hold the modulus that the other's lacks
    for re, im in ((exact, Fraction(0)), (Fraction(0), exact), (exact, Fraction(1, 2)),
                   (Fraction(-1, 3), exact), (exact, -exact)):
        assert hash(Scalar(re, im)) == _complex_hash(re, im)


def test_hashing_a_scalar_builds_no_fraction(monkeypatch):
    values = [Scalar(Fraction(3, 7), -2), Scalar(Fraction(1, _MODULUS), Fraction(1, 2)), Scalar(-1)]
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    for value in values:
        hash(value)
        hash(Expr.number(value) * Expr.symbol("Q"))
    assert made == []


def test_equal_values_hold_equal_ints():
    assert Scalar(Fraction(2, 4), Fraction(3, 6)).abd == Scalar(0.5, 0.5).abd == (1, 1, 2)
    cancelled = Scalar(Fraction(1, 3), Fraction(2, 5)) + Scalar(Fraction(2, 3), Fraction(-2, 5))
    assert cancelled.abd == Scalar(1).abd == (1, 0, 1)
    assert cancelled.is_real() and repr(cancelled) == "Scalar(1)"
    assert Scalar(-0.0).abd == Scalar(0, Fraction(0, 7)).abd == (0, 0, 1)
    assert type(cancelled.re) is Fraction and type(cancelled.im) is Fraction
    assert Scalar(Fraction(-3, 4), 2).re == Fraction(-3, 4) and Scalar(0, -0.25).im == Fraction(-1, 4)


def _pair(s: Scalar):
    return s.re, s.im


def _product(x, y):
    """The two-Fraction reference: (re, im) pairs multiplied as complex numbers."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _reciprocal(x):
    n = x[0] ** 2 + x[1] ** 2
    return x[0] / n, -x[1] / n


_fraction_pairs = st.tuples(
    st.fractions(max_denominator=9),
    st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=9)),  # real or complex
)


@settings(max_examples=150, deadline=None)
@given(_fraction_pairs, _fraction_pairs, st.integers(-5, 5))
def test_scalar_arithmetic_matches_a_two_fraction_reference(x, y, n):
    a, b = Scalar(*x), Scalar(*y)
    assert _pair(a) == x
    assert repr(a.to_complex()) == repr(complex(float(x[0]), float(x[1])))
    assert _pair(a + b) == (x[0] + y[0], x[1] + y[1])
    assert _pair(a - b) == (x[0] - y[0], x[1] - y[1])
    assert _pair(a * b) == _product(x, y)
    assert _pair(-a) == (-x[0], -x[1])
    assert _pair(a.conjugate()) == (x[0], -x[1])
    if b:
        assert _pair(a / b) == _product(x, _reciprocal(y))
    power = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        power = _product(power, x)
    if n >= 0:
        assert _pair(a ** n) == power
    elif a:
        assert _pair(a ** n) == _reciprocal(power)


def test_monomial_constructor():
    assert Expr.monomial(3, Q=2, dQ=0, s=3) == parse_expression("3*Q^2*s^3")
    assert Expr.monomial(Fraction(1, 2), dP=-2) == parse_expression("1/(2*dP^2)")
    assert Expr.monomial(0, Q=1).is_zero()
    with pytest.raises(KeyError):
        Expr.monomial(1, x=1)


def test_constructor_puts_symbols_in_rank_order():
    q, hbar = Expr.symbol("Q"), Expr.symbol("hbar")
    built = Expr({(("Q", 1), ("hbar", 1)): 1})
    assert built == hbar * q
    assert hash(built) == hash(hbar * q)
    assert format_expression(built) == format_expression(hbar * q) == "hbar*Q"


def test_constructor_drops_zero_exponents():
    assert Expr({(("Q", 0),): 2}) == 2
    assert format_expression(Expr({(("Q", 0),): 2})) == "2"
    assert Expr({(("Q", 1), ("P", 0)): 1}) == Expr.symbol("Q")


def test_constructor_reduces_powers_of_s():
    s, nu = Expr.symbol("s"), Expr.symbol("nu")
    assert Expr({(("s", 2),): 1}) == nu ** -1
    assert Expr({(("s", 3), ("Q", 1)): 1}) == Expr.symbol("Q") * s * nu ** -1
    assert Expr({(("s", -1),): 1}) == nu * s


def test_constructor_adds_keys_that_collide():
    q, p = Expr.symbol("Q"), Expr.symbol("P")
    assert Expr({(("Q", 1), ("P", 1)): 1, (("P", 1), ("Q", 1)): 2}) == 3 * q * p
    assert Expr({(("Q", 1), ("Q", 1)): 1}) == q * q
    assert Expr({(("Q", 1), ("Q", -1)): 1, (): -1}).is_zero()
    with pytest.raises(KeyError, match="unknown symbol 'x'"):
        Expr({(("x", 1),): 1})
    assert Expr([((("Q", 1),), 1), ((("Q", 1),), 2)]) == 3 * q
