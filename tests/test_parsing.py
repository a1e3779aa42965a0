"""Printer/parser round trips and the golden text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra import (
    Expr,
    ParseError,
    PhasePolynomial,
    WeylPolynomial,
    format_expression,
    format_ladder,
    format_phase,
    format_weyl,
    parse_expression,
    parse_ladder,
    parse_phase,
    parse_weyl,
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
    "(1/2+3/2*i)*t + 5",
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
