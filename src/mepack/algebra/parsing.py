"""Plain-text printer and parser for expressions and operator polynomials.

Grammar (round-trips with the printers):

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := atom ('^' ['-'] INT)?
    atom    := INT | 'i' | SYMBOL | 'q' | 'p' | 'A' | 'Ad' | '(' sum ')' | '-' atom

Scalar parts commute; the operator letters q, p (Weyl) and A, Ad (ladder)
keep their written order.  Example: `(3/2)*V3*q^2*p + i*hbar*q`.

The parser evaluates as it reads, in the target algebra: a scalar
sub-expression is an `Expr`, an operator letter is the degree-1 monomial of
the target `OrderedPolynomial` class, and `+ - * / ^` are that ring's own
operations, so `(q+p)^n` costs O(log n) ring products.  A product or
power of operator degree above `MAX_EXPRESSION_DEGREE` is a ParseError,
raised before it is formed; a scalar power has degree 0.  Divisors and bases
of negative powers must be nonzero scalar monomials (`q*p - p*q` counts);
the ring's `inverse()` decides, and a ZeroDivisionError becomes a
ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, List

from .expression import Expr, _symbol_rank, is_known_symbol
from .ladder import LadderPolynomial
from .phase import PhasePolynomial
from .scalar import Scalar
from .weyl import WeylPolynomial
from .words import OrderedPolynomial

_OPERATOR_LETTERS = ("q", "p", "A", "Ad")
# the highest operator degree a parse may form, checked before each product
# or power is formed; the bundled scenarios use at most 4, the tests 24
MAX_EXPRESSION_DEGREE = 28


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_scalar(c: Scalar, *, bare: bool = False) -> str:
    """Token for a scalar; parenthesized where needed for re-parsing."""
    if c.im == 0:
        s = _format_fraction(c.re)
        if c.re.denominator != 1 and not bare:
            return f"({s})"
        return s
    if c.re == 0:
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
    parts = []
    for sym, exp in sorted(mono, key=lambda it: _symbol_rank(it[0])):
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)


def _format_term(coeff: Scalar, mono_str: str) -> str:
    if not mono_str:
        return _format_scalar(coeff)
    if coeff == Scalar(1):
        return mono_str
    if coeff == Scalar(-1):
        return f"-{mono_str}"
    return f"{_format_scalar(coeff)}*{mono_str}"


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
    return _join_terms([_format_term(c, _format_mono(m)) for m, c in expr.terms()])


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
            rendered.append(_format_term(scalar, tail))
    return _join_terms(rendered)


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
            _check_degree(_degree(value) + _degree(rhs))
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
            _check_degree(_degree(base) * exp)
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
