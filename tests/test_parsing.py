"""Printer/parser round trips and the golden text format."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import (
    Expr,
    ParseError,
    PhasePolynomial,
    Scalar,
    WeylPolynomial,
    format_expression,
    format_ladder,
    format_nu_polynomial,
    format_phase,
    format_weyl,
    parse_expression,
    parse_ladder,
    parse_phase,
    parse_weyl,
    to_ladder,
)
from mepack.algebra.expression import _symbol_rank
from mepack.algebra import parsing
from mepack.algebra.parsing import (
    MAX_EXPRESSION_DEGREE,
    MAX_NUMBER_DIGITS,
    MAX_POWER_TERMS,
    MAX_PRODUCT_TERMS,
)
from mepack.dynamics import (
    PolynomialPotential,
    averaged_p_derivatives,
    derivatives_classical,
    derivatives_quantum,
    quantum_correction,
)


GOLDEN_WEYL = [
    "(3/2)*V3*q^2*p + i*hbar*q",
    "q*p",
    "-q^2 + 2*p",
    "Q*P + (1/2)*i*hbar",
    "i*hbar*(12*p*q^2*p - 6*hbar^2)",
    "p^2/(2*m) + V0 + V1*q + (1/2)*V2*q^2 + (1/6)*V3*q^3 + (1/24)*V4*q^4",
]


@pytest.mark.parametrize("text", GOLDEN_WEYL)
def test_weyl_round_trip(text):
    poly = parse_weyl(text)
    assert parse_weyl(format_weyl(poly)) == poly


GOLDEN_EXPR = [
    "Q^2*P^2 + Q^2*dP^2 + P^2*dQ^2 + dQ^2*dP^2",
    "-V1 - V2*Q - (1/2)*V3*Q^2",
    "3*i*dQ^3*dP*nu^-1",
    "(1/2+3/2*i)*hbar + 5",
    "21 - 2*nu^-2",
]


@pytest.mark.parametrize("text", GOLDEN_EXPR)
def test_expression_round_trip(text):
    expr = parse_expression(text)
    assert parse_expression(format_expression(expr)) == expr


def test_ladder_round_trip():
    poly = parse_ladder("2*Ad^2*A - i*A + (1/3)*Ad")
    assert parse_ladder(format_ladder(poly)) == poly


def test_phase_round_trip():
    poly = parse_phase("q^2*p - (5/7)*p^3 + m*q")
    assert parse_phase(format_phase(poly)) == poly


def test_word_order_is_respected():
    assert parse_weyl("q*p") != parse_weyl("p*q")
    assert parse_weyl("p*q") == parse_weyl("q*p - i*hbar")


def test_rational_literals_and_negative_powers():
    expr = parse_expression("3/2*nu^-2")
    assert expr == parse_expression("(3/2)/nu^2")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("q +")
    with pytest.raises(ParseError):
        parse_expression("2 ** 3")
    with pytest.raises(ParseError):
        parse_expression("unknown_symbol")
    with pytest.raises(ParseError):
        parse_expression("q*p")  # operator letters are not scalars
    with pytest.raises(ParseError):
        parse_weyl("A*q")  # mixed algebras
    with pytest.raises(ParseError):
        parse_weyl("q/(q+1)")  # only scalar monomial divisors


@pytest.mark.parametrize("name", ["t", "k"])
def test_names_outside_the_symbol_set_do_not_parse(name):
    # the symbol set holds only names that some formula of the package reads
    with pytest.raises(ParseError, match=f"unknown name '{name}'"):
        parse_expression(name)


def test_scalar_coefficient_forms():
    assert format_expression(parse_expression("-i")) == "-i"
    assert format_expression(parse_expression("(1/2)*i*hbar")) == "(1/2)*i*hbar"
    mixed = parse_expression("(1/2 - 3*i)*Q")
    assert parse_expression(format_expression(mixed)) == mixed


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_weyl, "q/0"),
        (parse_weyl, "q/(V1+V2)"),
        (parse_expression, "(V1+V2)^-1"),
        (parse_expression, "0^-2"),
        (parse_ladder, "A/(A*Ad - Ad*A - 1)"),
    ],
)
def test_divisors_that_cannot_be_inverted(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_operator_values_equal_to_a_scalar_divide():
    assert parse_weyl("p/q^0") == parse_weyl("p")
    assert parse_weyl("q/(q*p - p*q)") == parse_weyl("q/(i*hbar)")


def test_power_of_a_sum_costs_one_product_per_factor(monkeypatch):
    calls = []
    mul = WeylPolynomial.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(WeylPolynomial, "__mul__", counting)
    poly = parse_weyl("(q+p)^10")
    assert len(calls) <= 2 * 10
    monkeypatch.undo()
    assert poly == (WeylPolynomial.q() + WeylPolynomial.p()) ** 10


# -- random expression trees: the parsed text equals the same tree built by
# -- ring arithmetic

_LETTERS = ("q", "p")
_SYMBOLS = ("Q", "P", "dQ", "dP", "nu", "hbar", "m", "V3")
_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)

_leaves = st.one_of(
    st.tuples(st.just("int"), st.integers(-6, 6)),
    st.tuples(st.just("frac"), _NONZERO),
    st.tuples(st.just("i")),
    st.tuples(st.just("sym"), st.sampled_from(_SYMBOLS)),
    st.tuples(st.just("letter"), st.sampled_from(_LETTERS)),
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 4)),
        st.tuples(st.just("/"), children, _NONZERO),
        st.tuples(st.just("neg"), children),
    )


def _fraction_text(f):
    return f"({f.numerator}/{f.denominator})"


def _render(tree):
    kind = tree[0]
    if kind == "int":
        return f"({tree[1]})"
    if kind == "frac":
        return _fraction_text(tree[1])
    if kind in ("sym", "letter"):
        return tree[1]
    if kind == "i":
        return "i"
    if kind == "neg":
        return f"(-{_render(tree[1])})"
    if kind == "^":
        return f"({_render(tree[1])})^{tree[2]}"
    if kind == "/":
        return f"({_render(tree[1])})/{_fraction_text(tree[2])}"
    return f"({_render(tree[1])} {kind} {_render(tree[2])})"


def _build(tree, cls):
    """The tree's value in `cls` (a polynomial class, or Expr without letters)."""
    kind = tree[0]
    if kind == "letter":
        return cls({(1, 0) if tree[1] == "q" else (0, 1): Expr.number(1)})
    if kind in ("int", "frac"):
        return cls.coerce(Expr.number(tree[1]))
    if kind == "i":
        return cls.coerce(Expr.i())
    if kind == "sym":
        return cls.coerce(Expr.symbol(tree[1]))
    if kind == "neg":
        return -_build(tree[1], cls)
    if kind == "^":
        return _build(tree[1], cls) ** tree[2]
    if kind == "/":
        return _build(tree[1], cls) * cls.coerce(Expr.number(1 / tree[2]))
    left, right = _build(tree[1], cls), _build(tree[2], cls)
    if kind == "+":
        return left + right
    return left - right if kind == "-" else left * right


def _letter_degree(tree):
    kind = tree[0]
    if kind == "letter":
        return 1
    if kind in ("int", "frac", "i", "sym"):
        return 0
    if kind in ("neg", "/"):
        return _letter_degree(tree[1])
    if kind == "^":
        return _letter_degree(tree[1]) * tree[2]
    if kind == "*":
        return _letter_degree(tree[1]) + _letter_degree(tree[2])
    return max(_letter_degree(tree[1]), _letter_degree(tree[2]))


_trees = st.recursive(_leaves, _branches, max_leaves=6).filter(
    lambda t: _letter_degree(t) <= 8
)


@settings(max_examples=60, deadline=None)
@given(_trees)
def test_parsed_trees_equal_ring_arithmetic(tree):
    text = _render(tree)
    assert parse_weyl(text) == _build(tree, WeylPolynomial), text
    assert parse_phase(text) == _build(tree, PhasePolynomial), text
    if "letter" not in repr(tree):
        assert parse_expression(text) == _build(tree, Expr), text


# -- a power of a sum is bounded before it is formed


@pytest.mark.parametrize(
    "text, message",
    [
        ("(V1+V2)^800*q",
         f"the exponent of a sum must be at most {MAX_EXPRESSION_DEGREE}, got 800"),
        ("(V1+V2+V3+dQ)^28*q",
         f"a power of a sum may form at most {MAX_POWER_TERMS} products, got 4495 "
         "(4 terms to the power 28)"),
        ("(q+p+Q+P)^28",
         f"a power of a sum may form at most {MAX_POWER_TERMS} products, got 4495 "
         "(4 terms to the power 28)"),
    ],
)
def test_a_power_of_a_sum_is_refused_before_it_is_formed(monkeypatch, text, message):
    calls = []
    for cls in (Expr, WeylPolynomial):
        def counting(self, other, mul=cls.__mul__):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_weyl(text)
    assert calls == []


def test_a_power_of_a_sum_up_to_the_bound_parses():
    assert len(list(parse_expression("(V1+V2+V3+dQ)^16").terms())) == 969
    assert parse_weyl(f"(q+p)^{MAX_EXPRESSION_DEGREE}").degree() == MAX_EXPRESSION_DEGREE
    assert parse_expression("(1+1)^100") == Expr.number(2 ** 100)
    assert parse_expression("(V1+V2)^0") == Expr.number(1)


# -- a product is bounded by the pairs of terms it would multiply


@pytest.mark.parametrize(
    "text, pairs, tx, ty",
    [("(V1+V2+V3+dQ)^16*(V1+V2+V3+dQ)^16*(V1+V2+V3+dQ)^16*q", 938961, 969, 969),
     ("(V1+V2+V3+dQ)^7*(q+p+Q)^10", 120 * 161, 120, 161)],
)
def test_a_product_past_the_bound_is_refused_before_it_is_formed(monkeypatch, text, pairs,
                                                                  tx, ty):
    def size(x):
        return parsing._term_count(x) if isinstance(x, (Expr, WeylPolynomial)) else 1

    refused = []  # the powers are formed; the product of the two is not
    for cls in (Expr, WeylPolynomial):
        def counting(self, other, mul=cls.__mul__):
            if (size(self), size(other)) == (tx, ty):
                refused.append(None)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
    message = (f"a product may form at most {MAX_PRODUCT_TERMS} products of terms, "
               f"got {pairs} ({tx} terms times {ty})")
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_weyl(text)
    assert refused == []


def test_a_product_up_to_the_bound_parses():
    assert 84 * 84 <= MAX_PRODUCT_TERMS < 120 * 120
    assert parse_expression("(V1+V2+V3+dQ)^6*(V1+V2+V3+dQ)^6") == parse_expression(
        "(V1+V2+V3+dQ)^12")
    with pytest.raises(ParseError, match="got 14400"):
        parse_expression("(V1+V2+V3+dQ)^7*(V1+V2+V3+dQ)^7")
    assert parse_weyl("(q+p)^14*(q+p)^14") == parse_weyl("(q+p)^28")


# -- a coefficient is bounded by the digits that the printers can write


@pytest.mark.parametrize("template", ["{}*q^{}", "q^{1}/{0}"], ids=["numerator", "denominator"])
def test_the_largest_accepted_coefficient_prints_at_the_degree_cap(template):
    # the bound leaves room for what an average of the top degree
    # multiplies in; one digit more is refused
    from mepack.classical import moment_classical
    from mepack.packets import PacketMoments
    from mepack.quantum import expectation_quantum, restore_hbar

    op = parse_weyl(template.format("9" * MAX_NUMBER_DIGITS, MAX_EXPRESSION_DEGREE))
    sym = PacketMoments.symbolic()
    for printed in (format_weyl(op),
                    format_expression(restore_hbar(expectation_quantum(sym, op))),
                    format_expression(moment_classical(sym, op.classical()))):
        assert len(printed) > MAX_NUMBER_DIGITS
    with pytest.raises(ParseError, match=f"at most {MAX_NUMBER_DIGITS} digits, got "
                                         f"{MAX_NUMBER_DIGITS + 1}$"):
        parse_weyl(template.format("9" * (MAX_NUMBER_DIGITS + 1), MAX_EXPRESSION_DEGREE))


@pytest.mark.parametrize("text, digits", [
    ("1" + "0" * 5000, 5001), ("q^" + "1" * 5000, 5000), ("10^3000", 3000),
    ("(10^2000)*(10^2000)", 4000), ("(1/10^2000)/10^2000", 4000),
    ("2^300000000", 90308999), ("2^-300000000", 90308999), ("(2*Q)^-3000000", 903090),
], ids=["literal", "exponent", "power", "product", "denominators", "large-power",
        "large-negative-power", "negative-power-of-a-monomial"])
def test_a_coefficient_past_the_digit_bound_is_refused_before_it_is_formed(text, digits):
    with pytest.raises(ParseError, match=f"at most {MAX_NUMBER_DIGITS} digits, got "
                                         f"{digits}$"):
        parse_weyl(text)


def test_a_scalar_power_past_the_digit_bound_forms_no_power(monkeypatch):
    formed = []
    monkeypatch.setattr(Expr, "__pow__", lambda *args: formed.append(args))
    for text in ("2^300000000*q", "2^-300000000*q"):
        with pytest.raises(ParseError, match="digits"):
            parse_weyl(text)
    assert formed == []


def test_the_digit_bound_spares_leading_zeros_cancelling_factors_and_symbol_powers():
    big = "9" * MAX_NUMBER_DIGITS
    assert parse_expression("0" * 5000 + "7") == 7
    assert parse_expression(f"{big}/{big}") == 1
    assert parse_expression("Q^-100000") == Expr.symbol("Q", -100000)


# -- the printers against the printer they replaced, kept here as it was as
# -- the reference: every printed byte must stay


def _reference_fraction(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _reference_scalar(c):
    if c.im == 0:
        s = _reference_fraction(c.re)
        return f"({s})" if c.re.denominator != 1 else s
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        mag = _reference_fraction(abs(c.im))
        mag = f"({mag})" if abs(c.im).denominator != 1 else mag
        return f"{'-' if c.im < 0 else ''}{mag}*i"
    re_part = _reference_fraction(c.re)
    im_mag = "i" if abs(c.im) == 1 else f"{_reference_fraction(abs(c.im))}*i"
    return f"({re_part}{'+' if c.im > 0 else '-'}{im_mag})"


def _reference_mono(mono):
    parts = []
    for sym, exp in sorted(mono, key=lambda it: _symbol_rank(it[0])):
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)


def _reference_term(coeff, mono_str):
    if not mono_str:
        return _reference_scalar(coeff)
    if coeff == Scalar(1):
        return mono_str
    if coeff == Scalar(-1):
        return f"-{mono_str}"
    return f"{_reference_scalar(coeff)}*{mono_str}"


def _reference_join(terms):
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _reference_expression(expr):
    return _reference_join([_reference_term(c, _reference_mono(m)) for m, c in expr.terms()])


def _reference_power_word(letter, exp):
    if exp == 0:
        return ""
    return letter if exp == 1 else f"{letter}^{exp}"


def _reference_ordered(poly):
    x, y = poly.LETTERS
    rendered = []
    for (a, b), coeff in poly.terms():
        word = "*".join(w for w in (_reference_power_word(x, a), _reference_power_word(y, b))
                        if w)
        for mono, scalar in Expr.coerce(coeff).terms():
            tail = "*".join(w for w in (_reference_mono(mono), word) if w)
            rendered.append(_reference_term(scalar, tail))
    return _reference_join(rendered)


def _reference_nu_polynomial(expr):
    groups = expr.as_poly_in("nu")
    parts = []
    for e in sorted(groups, reverse=True):
        cs = _reference_expression(groups[e])
        if not groups[e].is_monomial():
            cs = f"({cs})"
        if e == 0:
            parts.append(cs)
            continue
        power = ("nu" if e == 1 else f"nu^{e}") if e > 0 else ("/nu" if e == -1 else f"/nu^{-e}")
        if e > 0:
            if cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append(f"-{power}")
            else:
                parts.append(f"{cs}*{power}")
        else:
            parts.append(f"{cs}{power}")
    return _reference_join(parts)


def _assert_prints_as_reference(expr):
    assert format_expression(expr) == _reference_expression(expr)
    text = format_nu_polynomial(expr)
    assert text == _reference_nu_polynomial(expr)
    assert parse_expression(text) == expr, text


@pytest.mark.parametrize("degree", range(7))
def test_corrections_print_as_the_reference(degree):
    potential = PolynomialPotential.symbolic(degree)
    for order in range(1, 9):
        quantum, classical = averaged_p_derivatives(potential, order)
        for expr in (quantum_correction(potential, order), quantum, classical):
            _assert_prints_as_reference(expr)


@pytest.mark.parametrize("degree", range(7))
def test_derivative_operators_print_as_the_reference(degree):
    potential = PolynomialPotential.symbolic(degree)
    quantum = derivatives_quantum(potential, 6)
    classical = derivatives_classical(potential, 6)
    for poly in quantum.q + quantum.p:
        assert format_weyl(poly) == _reference_ordered(poly)
    for poly in classical.q + classical.p:
        assert format_phase(poly) == _reference_ordered(poly)
    for poly in quantum.p[:3]:
        ladder = to_ladder(poly)
        assert format_ladder(ladder) == _reference_ordered(ladder)


_PACKET_SYMBOLS = tuple(name for name in _SYMBOLS if name != "nu")
# real coefficients 1, -1 and fractions, and complex ones with and without a
# real part, ±i among them
_SCALARS = st.one_of(
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1)]),
    st.tuples(_NONZERO, st.just(0)),
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), _NONZERO),
)
_LAURENT_TERMS = st.lists(
    st.tuples(
        _SCALARS,
        st.integers(-4, 4),
        st.lists(st.tuples(st.sampled_from(_PACKET_SYMBOLS), st.integers(-2, 3)), max_size=3),
    ),
    max_size=6,
)


def _laurent_in_nu(terms):
    out = Expr()
    for (re_part, im_part), nu_power, powers in terms:
        term = Expr.number(Scalar(Fraction(re_part), Fraction(im_part)))
        term = term * Expr.symbol("nu") ** nu_power
        for name, exp in powers:
            term = term * Expr.symbol(name) ** exp
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(_LAURENT_TERMS)
def test_laurent_polynomials_in_nu_print_as_the_reference(terms):
    _assert_prints_as_reference(_laurent_in_nu(terms))
