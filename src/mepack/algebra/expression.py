"""Exact multivariate expressions over a fixed symbol set.

An `Expr` is a Laurent polynomial (integer exponents, possibly negative)
over :class:`~mepack.algebra.scalar.Scalar` coefficients in the symbols

    hbar, m, V0..Vn, Q, P, dQ, dP, nu, s, t,

plus a handful of auxiliary names used internally (lam1..lam4 for
Lagrange multipliers, pi, v, Lnu = ln((nu+1)/(nu-1)), and k for number
polynomials).  Denominators are monomials, which is all the closed
formulas in this package ever need.

The auxiliary symbol `s` stands for 1/sqrt(nu) and carries the enforced
rewrite s^2 -> 1/nu, applied during monomial normalization, so canonical
monomials have s-exponent 0 or 1.

`-`, `/`, `**` and immutability come from `ring.ExactRing`; only a monomial
has an inverse, and a one-term power scales its exponents directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .ring import ExactRing
from .scalar import Scalar, ZERO, ONE

# fixed symbol universe; V<k> coefficients are matched by pattern
_BASE_SYMBOLS = (
    "hbar", "m", "Q", "P", "dQ", "dP", "nu", "s", "t",
    "v", "pi", "Lnu", "k",
    "lam1", "lam2", "lam3", "lam4",
)
_V_PATTERN = re.compile(r"^V(\d+)$")

_RANK = {name: i for i, name in enumerate(_BASE_SYMBOLS)}


def is_known_symbol(name: str) -> bool:
    return name in _RANK or bool(_V_PATTERN.match(name))


def _symbol_rank(name: str):
    m = _V_PATTERN.match(name)
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
    items = [(sym, exp) for sym, exp in powers.items() if exp != 0]
    items.sort(key=lambda it: _symbol_rank(it[0]))
    return tuple(items)


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


def _mono_degree(mono: Mono) -> int:
    return sum(exp for _, exp in mono)


def _mono_sort_key(mono: Mono):
    # graded ordering, then lexicographic on (rank, -exponent)
    return (-_mono_degree(mono), tuple((_symbol_rank(s), -e) for s, e in mono))


class Expr(ExactRing):
    """Immutable exact expression; arithmetic returns canonical forms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] = ()):
        cleaned = {m: c for m, c in dict(terms).items() if not c.is_zero()}
        object.__setattr__(self, "_terms", cleaned)

    # -- constructors --------------------------------------------------------

    @classmethod
    def number(cls, value) -> "Expr":
        c = Scalar.coerce(value)
        return cls({(): c}) if not c.is_zero() else cls()

    @classmethod
    def symbol(cls, name: str, exponent: int = 1) -> "Expr":
        return cls.monomial(ONE, **{name: exponent})

    @classmethod
    def monomial(cls, coeff=ONE, **powers: int) -> "Expr":
        """coeff times a product of symbol powers, e.g. monomial(3, Q=2, s=1)."""
        for name in powers:
            if not is_known_symbol(name):
                raise KeyError(f"unknown symbol {name!r}")
        return cls({_normalize_powers(powers): Scalar.coerce(coeff)})

    @classmethod
    def i(cls) -> "Expr":
        return cls({(): Scalar(0, 1)})

    @classmethod
    def coerce(cls, value) -> "Expr":
        if isinstance(value, Expr):
            return value
        return cls.number(value)

    # -- basic queries --------------------------------------------------------

    def terms(self) -> Iterable[Tuple[Mono, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

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

    _COERCIBLE = (int, float, complex, Fraction, Scalar)

    def __add__(self, other):
        if not isinstance(other, (Expr,) + Expr._COERCIBLE):
            return NotImplemented
        other = Expr.coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            _accumulate(terms, mono, coeff)
        return Expr(terms)

    __radd__ = __add__

    def __neg__(self):
        return Expr({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, (Expr,) + Expr._COERCIBLE):
            return NotImplemented
        return sum_of_products([(self, Expr.coerce(other))])

    __rmul__ = __mul__

    def inverse(self) -> "Expr":
        """Exact inverse; only monomials are invertible here."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(f"not an invertible monomial: {self}")
        (mono, coeff), = self._terms.items()
        inv = _normalize_powers({sym: -exp for sym, exp in mono})
        return Expr({inv: coeff.inverse()})

    def __pow__(self, exponent: int):
        if len(self._terms) == 1 and isinstance(exponent, int):
            # one term: scale the exponents (s^2 -> 1/nu applies) and
            # raise the coefficient
            (mono, coeff), = self._terms.items()
            powers = {sym: exp * exponent for sym, exp in mono}
            return Expr({_normalize_powers(powers): coeff ** exponent})
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
        return Expr(terms)

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
            factor = Expr({(): coeff})
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
        return Expr(terms)

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
        return Expr({m: c.conjugate() for m, c in self._terms.items()})

    def drop_symbol(self, name: str) -> "Expr":
        """Keep only the terms not containing `name`."""
        return Expr({m: c for m, c in self._terms.items() if all(s != name for s, _ in m)})

    def coefficient_of(self, name: str, power: int) -> "Expr":
        """Coefficient of name**power (an Expr free of `name`)."""
        terms: Dict[Mono, Scalar] = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            if powers.pop(name, 0) == power:
                terms[_normalize_powers(powers)] = coeff
        return Expr(terms)

    def as_poly_in(self, name: str) -> Dict[int, "Expr"]:
        out: Dict[int, Dict[Mono, Scalar]] = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            e = powers.pop(name, 0)
            out.setdefault(e, {})[_normalize_powers(powers)] = coeff
        return {e: Expr(t) for e, t in out.items()}

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction, complex, Scalar, Expr)):
            return self._terms == Expr.coerce(other)._terms
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
    return Expr(terms)


def sqrt_monomial(expr: Expr) -> Expr:
    """Exact square root of a monomial with even exponents, if one exists."""
    if not expr.is_monomial():
        raise ValueError(f"square root needs a monomial, got {expr}")
    (mono, coeff), = expr._terms.items()
    if not coeff.is_real() or coeff.re < 0:
        raise ValueError(f"square root of non-positive coefficient in {expr}")
    num, den = coeff.re.numerator, coeff.re.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        raise ValueError(f"coefficient of {expr} is not a rational square")
    if any(e % 2 for _, e in mono):
        raise ValueError(f"odd exponent under square root in {expr}")
    half = _normalize_powers({s: e // 2 for s, e in mono})
    return Expr({half: Scalar(Fraction(rn, rd))})


def _isqrt_exact(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
