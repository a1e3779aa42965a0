"""Exact multivariate expressions over a fixed symbol set.

An `Expr` is a Laurent polynomial (integer exponents, possibly negative)
over :class:`~mepack.algebra.scalar.Scalar` coefficients in the symbols

    hbar, m, V0..Vn, Q, P, dQ, dP, nu, s, t,

plus a handful of auxiliary names used internally (lam1..lam4 for
Lagrange multipliers, pi, v, Lnu = ln((nu+1)/(nu-1)), and k for number
polynomials).  Denominators are monomials, which is all the closed
formulas in this package ever need.

A canonical monomial is a tuple of (symbol, nonzero exponent) pairs in the
order of their ranks, with s^2 -> 1/nu applied (the auxiliary symbol `s` is
1/sqrt(nu), so its exponent is 0 or 1).  A symbol's rank is computed once,
the first time its name is read, and each product of two monomials once.
`Expr(terms)` brings any key to its canonical monomial (once per distinct
key) and adds the keys that collide; the constructors below start from
canonical keys and skip that step.

`TermMap` is the storage under `Expr`, the ordered polynomials and
`NumberPolynomial`; `term_sum` and `term_negation` are the `+` and unary `-`
of both rings.  `-`, `/` and `**` come from `ring.ExactRing`; only a monomial
has an inverse, and a one-term power scales its exponents directly.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple

from .ring import ExactRing
from .scalar import Scalar, ZERO, ONE

# fixed symbol universe; the potential coefficients V0, V1, ... are named
# canonically (ASCII digits, no leading zero), so one name is one symbol
_BASE_SYMBOLS = (
    "hbar", "m", "Q", "P", "dQ", "dP", "nu", "s", "t",
    "v", "pi", "Lnu", "k",
    "lam1", "lam2", "lam3", "lam4",
)
_V_NAME = re.compile(r"V(0|[1-9][0-9]*)")

_RANK = {name: i for i, name in enumerate(_BASE_SYMBOLS)}


def is_known_symbol(name: str) -> bool:
    return name in _RANK or bool(_V_NAME.fullmatch(name))


@lru_cache(maxsize=None)
def _symbol_rank(name: str):
    m = _V_NAME.fullmatch(name)
    if m:
        # potential coefficients sort between m and Q
        return (1, 1, int(m.group(1)))
    return (0 if _RANK[name] <= _RANK["m"] else 2, _RANK[name], 0)


Mono = Tuple[Tuple[str, int], ...]


def _normalize_powers(powers: Dict[str, int]) -> Mono:
    """Canonical monomial: drop zero exponents, apply s^2 -> 1/nu."""
    e = powers.get("s", 0)
    if e not in (0, 1):
        carry, rem = divmod(e, 2)  # floor division also handles e < 0
        powers["nu"] = powers.get("nu", 0) - carry
        if rem:
            powers["s"] = rem
        else:
            del powers["s"]
    return tuple([(sym, powers[sym]) for sym in sorted(powers, key=_symbol_rank) if powers[sym]])


@lru_cache(maxsize=None)
def _canonical(key) -> Mono:
    """The canonical monomial of (symbol, exponent) pairs in any order, with
    repeats and zero exponents allowed."""
    powers: Dict[str, int] = {}
    for sym, exp in key:
        if not is_known_symbol(sym):
            raise KeyError(f"unknown symbol {sym!r}")
        powers[sym] = powers.get(sym, 0) + operator.index(exp)
    return _normalize_powers(powers)


@lru_cache(maxsize=None)
def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return a or b
    powers = dict(a)
    for sym, exp in b:
        powers[sym] = powers.get(sym, 0) + exp
    return _normalize_powers(powers)


def _accumulate(terms: dict, key, coeff) -> None:
    """terms[key] += coeff, dropping the entry when the sum is zero; for
    any coefficients with `+` and a truth value (Scalar, Expr, int)."""
    acc = terms.get(key)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


class TermMap:
    """Immutable map from keys to nonzero coefficients; the constructor
    coerces each coefficient with the class's `COEFFICIENT` and drops zeros."""

    __slots__ = ("_terms",)

    COEFFICIENT = staticmethod(lambda value: value)

    def __init__(self, terms=()):
        coerce = self.COEFFICIENT
        cleaned = {key: c for key, coeff in dict(terms).items() if (c := coerce(coeff))}
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def _wrap(cls, terms: dict):
        """`cls(terms)` without the copy and the coercion, for a dict of
        coerced nonzero coefficients (as `_accumulate` leaves it) under
        canonical keys; the dict is held, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    __setattr__ = ExactRing.__setattr__

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def map_coefficients(self, fn):
        return type(self)({k: fn(c) for k, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))


def term_sum(x, y):
    """x + y in x's ring, or NotImplemented when its `coerce` refuses y."""
    y = x._coerced(y)
    if y is NotImplemented:
        return y
    terms = dict(x._terms)
    for key, coeff in y._terms.items():
        _accumulate(terms, key, coeff)
    return x._wrap(terms)


def term_negation(x):
    return x._wrap({key: -coeff for key, coeff in x._terms.items()})


def _mono_sort_key(mono: Mono):
    # graded ordering, then lexicographic on (rank, -exponent)
    return (-sum(e for _, e in mono), tuple((_symbol_rank(s), -e) for s, e in mono))


class Expr(TermMap, ExactRing):
    """Immutable exact expression; arithmetic returns canonical forms."""

    __slots__ = ()

    COEFFICIENT = staticmethod(Scalar.coerce)

    # -- constructors --------------------------------------------------------

    def __init__(self, terms=()):
        """The sum of coeff * key over {key: coeff}, or over (key, coeff)
        pairs: each key is a sequence of (symbol, exponent) pairs, brought to
        its canonical monomial."""
        merged: Dict[Mono, Scalar] = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            _accumulate(merged, _canonical(key), Scalar.coerce(coeff))
        object.__setattr__(self, "_terms", merged)

    @classmethod
    def _term(cls, mono: Mono, coeff) -> "Expr":
        """coeff * mono for a canonical monomial, with no canonicalisation."""
        coeff = Scalar.coerce(coeff)
        return cls._wrap({mono: coeff} if coeff else {})

    @classmethod
    def number(cls, value) -> "Expr":
        return cls._term((), value)

    @classmethod
    def symbol(cls, name: str, exponent: int = 1) -> "Expr":
        return cls.monomial(ONE, **{name: exponent})

    @classmethod
    def monomial(cls, coeff=ONE, **powers: int) -> "Expr":
        """coeff times a product of symbol powers, e.g. monomial(3, Q=2, s=1)."""
        for name in powers:
            if not is_known_symbol(name):
                raise KeyError(f"unknown symbol {name!r}")
        return cls._term(_normalize_powers(powers), coeff)

    @classmethod
    def i(cls) -> "Expr":
        return cls._term((), Scalar(0, 1))

    @classmethod
    def coerce(cls, value) -> "Expr":
        return value if isinstance(value, Expr) else cls._term((), value)

    # -- basic queries --------------------------------------------------------

    def terms(self) -> Iterable[Tuple[Mono, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> Scalar:
        if not self._terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms[()]

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def symbols(self) -> set:
        return {sym for mono in self._terms for sym, _ in mono}

    # -- arithmetic -----------------------------------------------------------

    __add__ = __radd__ = term_sum
    __neg__ = term_negation

    def __mul__(self, other):
        other = self._coerced(other)
        return other if other is NotImplemented else sum_of_products([(self, other)])

    __rmul__ = __mul__

    def inverse(self) -> "Expr":
        """Exact inverse; only monomials are invertible here."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(f"not an invertible monomial: {self}")
        (mono, coeff), = self._terms.items()
        inv = _normalize_powers({sym: -exp for sym, exp in mono})
        return Expr._term(inv, coeff.inverse())

    def __pow__(self, exponent: int):
        if len(self._terms) == 1 and isinstance(exponent, int):
            # one term: scale the exponents (s^2 -> 1/nu applies) and
            # raise the coefficient
            (mono, coeff), = self._terms.items()
            powers = {sym: exp * exponent for sym, exp in mono}
            return Expr._term(_normalize_powers(powers), coeff ** exponent)
        return super().__pow__(exponent)

    # -- calculus / rewriting ---------------------------------------------------

    def diff(self, name: str) -> "Expr":
        terms: Dict[Mono, Scalar] = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            e = powers.get(name, 0)
            if e == 0:
                continue
            powers[name] = e - 1
            _accumulate(terms, _normalize_powers(powers), coeff * e)
        return Expr._wrap(terms)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace symbols by expressions.

        Symbols occurring with negative exponents can only be replaced by
        invertible monomials (hbar -> 2*dQ*dP/nu is the main client).
        Each (symbol, exponent) power is computed once per call.
        """
        reps = {k: Expr.coerce(v) for k, v in mapping.items()}
        powers: Dict[Tuple[str, int], Expr] = {}
        terms: Dict[Mono, Scalar] = {}
        for mono, coeff in self._terms.items():
            factor = Expr._wrap({(): coeff})
            rest: Dict[str, int] = {}
            for sym, exp in mono:
                if sym not in reps:
                    rest[sym] = exp
                    continue
                power = powers.get((sym, exp))
                if power is None:
                    power = powers[sym, exp] = reps[sym] ** exp
                factor = factor * power
            rest_mono = _normalize_powers(rest)
            for m, c in factor._terms.items():
                _accumulate(terms, _mono_mul(m, rest_mono), c)
        return Expr._wrap(terms)

    def evaluate(self, bindings: Mapping[str, complex]) -> complex:
        """Numeric value; raises KeyError naming any unbound symbol."""
        total = 0j
        for mono, coeff in self._terms.items():
            value = coeff.to_complex()
            for sym, exp in mono:
                if sym not in bindings:
                    raise KeyError(f"unbound symbol {sym!r} in {self}")
                value *= complex(bindings[sym]) ** exp
            total += value
        return total

    def conjugate(self) -> "Expr":
        # all symbols in the set denote real quantities
        return Expr._wrap({m: c.conjugate() for m, c in self._terms.items()})

    def drop_symbol(self, name: str) -> "Expr":
        """Keep only the terms not containing `name`."""
        return self.coefficient_of(name, 0)

    def coefficient_of(self, name: str, power: int) -> "Expr":
        """Coefficient of name**power (an Expr free of `name`)."""
        return self.as_poly_in(name).get(power, Expr())

    def as_poly_in(self, name: str) -> Dict[int, "Expr"]:
        """{power: coefficient} in `name`: a canonical monomial stays canonical
        without its `name` factor."""
        out: Dict[int, Dict[Mono, Scalar]] = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            e = powers.pop(name, 0)
            out.setdefault(e, {})[tuple(powers.items())] = coeff
        return {e: Expr._wrap(t) for e, t in out.items()}

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self._terms == other._terms
        if isinstance(other, (int, float, Fraction, complex, Scalar)):
            # Scalar's equality is false for nan and infinities
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its number, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        from .parsing import format_expression

        return format_expression(self)


def sum_of_products(pairs: Iterable[Tuple[Expr, Expr]]) -> Expr:
    """The sum of x * y over the pairs, accumulated in one term dict."""
    terms: Dict[Mono, Scalar] = {}
    for x, y in pairs:
        for m1, c1 in x._terms.items():
            for m2, c2 in y._terms.items():
                _accumulate(terms, _mono_mul(m1, m2), c1 * c2)
    return Expr._wrap(terms)


def sqrt_monomial(expr: Expr) -> Expr:
    """Exact square root of a monomial with even exponents, if one exists."""
    if not expr.is_monomial():
        raise ValueError(f"square root needs a monomial, got {expr}")
    (mono, coeff), = expr._terms.items()
    num, im, den = coeff.abd
    if im or num < 0:
        raise ValueError(f"square root of non-positive coefficient in {expr}")
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        raise ValueError(f"coefficient of {expr} is not a rational square")
    if any(e % 2 for _, e in mono):
        raise ValueError(f"odd exponent under square root in {expr}")
    half = _normalize_powers({s: e // 2 for s, e in mono})
    return Expr._term(half, Scalar(Fraction(rn, rd)))


def _isqrt_exact(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
