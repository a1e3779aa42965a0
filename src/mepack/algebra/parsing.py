"""Plain-text printers and parser for expressions and operator polynomials.

Grammar (round-trips with the printers):

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := atom ('^' ['-'] INT)?
    atom    := INT | 'i' | SYMBOL | 'q' | 'p' | 'A' | 'Ad' | '(' sum ')' | '-' atom

Scalar parts commute; the operator letters q, p (Weyl) and A, Ad (ladder)
keep their written order.  Example: `(3/2)*V3*q^2*p + i*hbar*q`.

This module is the one place that knows the printed form.
`format_expression` prints an `Expr` in its canonical term order,
`format_ordered` (also named `format_weyl`, `format_phase` and
`format_ladder`) prints an operator polynomial word by word, and
`format_nu_polynomial` prints an `Expr` grouped by powers of nu
(`21 - 2/nu^2`), the form of the `1/nu` corrections.  Every term is
rendered by one rule: a coefficient of 1 is dropped, one of -1 becomes a
leading minus, and a fraction is parenthesized.

The parser evaluates as it reads, in the target algebra: a scalar
sub-expression is an `Expr`, an operator letter is the degree-1 monomial of
the target `OrderedPolynomial` class, and `+ - * / ^` are that ring's own
operations, so `(q+p)^n` costs O(log n) ring products.  A product or
power of operator degree above `MAX_EXPRESSION_DEGREE` is a ParseError,
raised before it is formed.  So is a power of a sum, scalar or not, whose
exponent is above `MAX_EXPRESSION_DEGREE` or that would form more than
`MAX_POWER_TERMS` products of the sum's terms (`(V1+V2+V3+dQ)^28` would
form 4495), and a product that would multiply more than `MAX_PRODUCT_TERMS`
pairs of its factors' terms.  Divisors and bases of negative powers must be nonzero scalar
monomials (`q*p - p*q` counts); the ring's `inverse()` decides, and a
ZeroDivisionError becomes a ParseError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, List

from .expression import Expr, is_known_symbol
from .ladder import LadderPolynomial
from .phase import PhasePolynomial
from .scalar import Scalar
from .weyl import WeylPolynomial
from .words import OrderedPolynomial

_OPERATOR_LETTERS = ("q", "p", "A", "Ad")
# the highest operator degree a parse may form, checked before each product
# or power is formed; the bundled scenarios use at most 4, the tests 24
MAX_EXPRESSION_DEGREE = 28
# the most products of e of a sum's t terms, C(e + t - 1, t - 1), that a
# power of the sum may form, checked before it is formed; `(V1+V2+V3+dQ)^16`
# forms 969 and parses in about 0.2 s, `(q+p)^28` forms 29
MAX_POWER_TERMS = 1000
# the most products of a term of one factor with a term of the other,
# t_x * t_y, that a product may form, checked before it is formed; a pair
# costs up to about 40 us (`(q+p)^14*(q+p)^14` forms 4096 pairs in 0.15 s),
# and the tests, demos and scenarios form at most 106
MAX_PRODUCT_TERMS = 10_000


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_scalar(c: Scalar) -> str:
    """Token for a scalar; parenthesized where needed for re-parsing."""
    a, b, d = c.abd
    if b == 0:
        # a/d is in lowest terms, as (a, 0, d) is
        return str(a) if d == 1 else f"({a}/{d})"
    if a == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        mag = _format_fraction(abs(c.im))
        mag = f"({mag})" if abs(c.im).denominator != 1 else mag
        return f"{'-' if c.im < 0 else ''}{mag}*i"
    re_part = _format_fraction(c.re)
    im_mag = "i" if abs(c.im) == 1 else f"{_format_fraction(abs(c.im))}*i"
    return f"({re_part}{'+' if c.im > 0 else '-'}{im_mag})"


def _format_mono(mono) -> str:
    # a canonical monomial is already in rank order
    return "*".join(sym if exp == 1 else f"{sym}^{exp}" for sym, exp in mono)


def _format_term(coefficient: str, tail: str) -> str:
    """One printed term from its rendered coefficient and the rest: a
    coefficient of 1 is dropped and one of -1 becomes a leading minus."""
    if not tail:
        return coefficient
    if coefficient == "1":
        return tail
    if coefficient == "-1":
        return f"-{tail}"
    return f"{coefficient}*{tail}"


def _join_terms(terms: List[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out


def format_expression(expr: Expr) -> str:
    return _join_terms([_format_term(_format_scalar(c), _format_mono(m)) for m, c in expr.terms()])


def _power_word(letter: str, exp: int) -> str:
    if exp == 0:
        return ""
    return letter if exp == 1 else f"{letter}^{exp}"


def format_ordered(poly: OrderedPolynomial) -> str:
    """Render X^a Y^b terms with the polynomial's own letter pair."""
    x, y = poly.LETTERS
    rendered = []
    for (a, b), coeff in poly.terms():
        word = "*".join(w for w in (_power_word(x, a), _power_word(y, b)) if w)
        for mono, scalar in Expr.coerce(coeff).terms():
            tail = "*".join(w for w in (_format_mono(mono), word) if w)
            rendered.append(_format_term(_format_scalar(scalar), tail))
    return _join_terms(rendered)


def format_nu_polynomial(expr: Expr) -> str:
    """Render an expression grouped by powers of nu, e.g. `21 - 2/nu^2`."""
    groups = expr.as_poly_in("nu")
    parts = []
    for e in sorted(groups, reverse=True):
        cs = format_expression(groups[e])
        if not groups[e].is_monomial():
            cs = f"({cs})"
        if e < 0:
            parts.append(f"{cs}/{_power_word('nu', -e)}")
        else:
            parts.append(_format_term(cs, _power_word("nu", e)))
    return _join_terms(parts)


format_weyl = format_phase = format_ladder = format_ordered


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^()]))")


class ParseError(ValueError):
    pass


def _tokenize(text: str) -> List[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"bad character at {text[pos:]!r}")
    return tokens


def _inverse(value, message: str):
    """The ring's inverse of `value`; a value with none is a ParseError."""
    try:
        return value.inverse()
    except ZeroDivisionError:
        raise ParseError(message) from None


def _degree(value) -> int:
    return 0 if isinstance(value, Expr) else value.degree()


def _check_degree(degree: int):
    """Refuse a product or power above `MAX_EXPRESSION_DEGREE` before it is formed."""
    if degree > MAX_EXPRESSION_DEGREE:
        raise ParseError(f"degree must be at most {MAX_EXPRESSION_DEGREE}, got {degree}")


def _term_count(value) -> int:
    """Scalar monomials of `value`, counted over every operator word."""
    coefficients = [value] if isinstance(value, Expr) else value._terms.values()
    return sum(len(c._terms) for c in coefficients)


def _check_product(x, y):
    """Refuse `x * y` before it is formed if its operator degree is above
    `MAX_EXPRESSION_DEGREE` or it would multiply more than
    `MAX_PRODUCT_TERMS` pairs of terms."""
    _check_degree(_degree(x) + _degree(y))
    tx, ty = _term_count(x), _term_count(y)
    if tx * ty > MAX_PRODUCT_TERMS:
        raise ParseError(f"a product may form at most {MAX_PRODUCT_TERMS} products of terms, "
                         f"got {tx * ty} ({tx} terms times {ty})")


def _check_power(base, exp: int):
    """Refuse `base^exp` before it is formed if its operator degree is above
    `MAX_EXPRESSION_DEGREE`, or if `base` is a sum of t > 1 terms and `exp`
    is above `MAX_EXPRESSION_DEGREE` or C(exp + t - 1, t - 1) is above
    `MAX_POWER_TERMS`."""
    _check_degree(_degree(base) * exp)
    terms = _term_count(base)
    if terms < 2:
        return
    if exp > MAX_EXPRESSION_DEGREE:
        raise ParseError(f"the exponent of a sum must be at most {MAX_EXPRESSION_DEGREE}, "
                         f"got {exp}")
    products = math.comb(exp + terms - 1, exp)
    if products > MAX_POWER_TERMS:
        raise ParseError(f"a power of a sum may form at most {MAX_POWER_TERMS} products, "
                         f"got {products} ({terms} terms to the power {exp})")


class _Parser:
    """Recursive descent that evaluates as it parses: a scalar is an `Expr`,
    and `letter` turns an operator letter into a value of the target ring
    (or raises ParseError), so products are ring products."""

    def __init__(self, text: str, letter: Callable[[str], OrderedPolynomial]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.letter = letter

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        out = self.sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return out

    def sum(self):
        value = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "/":
                rhs = _inverse(rhs, "can only divide by a scalar monomial")
            _check_product(value, rhs)
            value = value * rhs
        return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError(f"bad exponent {tok!r}")
            exp = sign * int(tok)
            if exp < 0:
                return _inverse(base, "negative power of a non-scalar") ** (-exp)
            _check_power(base, exp)
            return base ** exp
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.sum()
            self.expect(")")
            return inner
        if tok.isdigit():
            return Expr.number(int(tok))
        if tok == "i":
            return Expr.i()
        if tok in _OPERATOR_LETTERS:
            return self.letter(tok)
        if is_known_symbol(tok):
            return Expr.symbol(tok)
        raise ParseError(f"unknown name {tok!r}")


def parse_expression(text: str) -> Expr:
    def letter(tok):
        raise ParseError(f"operator letters not allowed here: {tok}")

    return _Parser(text, letter).parse()


def _parse_ordered(text: str, cls, message: str):
    def letter(tok):
        if tok not in cls.LETTERS:
            raise ParseError(message)
        return cls({(1, 0) if tok == cls.LETTERS[0] else (0, 1): Expr.number(1)})

    return cls.coerce(_Parser(text, letter).parse())


def parse_weyl(text: str) -> WeylPolynomial:
    return _parse_ordered(text, WeylPolynomial, "ladder letters in a Weyl expression")


def parse_phase(text: str) -> PhasePolynomial:
    return _parse_ordered(text, PhasePolynomial, "ladder letters in a phase-space expression")


def parse_ladder(text: str) -> LadderPolynomial:
    return _parse_ordered(text, LadderPolynomial, "Weyl letters in a ladder expression")
