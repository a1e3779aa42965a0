"""Ordered polynomials in two letters, with closed-form normal ordering.

All three algebras in this package are spanned by the ordered monomials
X^a Y^b (every X left of every Y) and differ only in the constant c that
one swap of a disordered pair adds:

    q p = p q                         phase space   (c = 0)
    p q = q p + (-i*hbar) * 1         Weyl algebra  (c = -i*hbar)
    A Ad = Ad A + 1                   ladder        (c = 1, X = Ad, Y = A)

Reducing Y^b X^a to normal order has the closed form (Wilcox,
J. Math. Phys. 8, 962 (1967); Blasiak, Penson and Solomon 2003)

    Y^b X^a = sum_j j! C(a, j) C(b, j) c^j X^(a-j) Y^(b-j),

so the product of two ordered monomials is

    X^a1 Y^b1 . X^a2 Y^b2
        = sum_j swap_counts(b1, a2)[j] c^j X^(a1+a2-j) Y^(b1+b2-j).

Read on one monomial, the same sum is `contract(terms, c)`, the map
X^a Y^b -> sum_j swap_counts(a, b)[j] c^j X^(a-j) Y^(b-j), i.e. exp(c d_X d_Y)
on commuting letters, which -c undoes.  It normal-orders Y^b X^a (the Weyl
adjoint), and maps Weyl symbols to q-left operators (c = -i*hbar/2) and back.

`OrderedPolynomial` implements that ring once on the shared term map
(`expression.TermMap`, with its `+` and unary `-`); a ring is its
contraction c, `CONTRACTION` (None for the commutative case, which keeps
only j = 0), and its two letters, `LETTERS`.  A product keeps its
factors' coefficient type: `Expr` from the public constructor, `int` for
the moment engine's centred ladder words (built by `_wrap`; the ladder's
c is the int 1).  `-` and `**` come from `ring.ExactRing`; the only invertible polynomials are the nonzero scalars
c X^0 Y^0 with an invertible coefficient, so `/` divides by those and a
negative power of anything else raises ZeroDivisionError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, Iterable, Mapping, Tuple

from .expression import Expr, TermMap, _accumulate, term_negation, term_sum
from .ring import ExactRing

Key = Tuple[int, int]  # exponents of X^a Y^b


@lru_cache(maxsize=None)
def swap_counts(nl: int, nr: int) -> Dict[int, int]:
    """{j: multiplicity} of the words with j contracted pairs in the normal
    form of `nl` late letters followed by `nr` early ones."""
    return {
        j: math.factorial(j) * math.comb(nl, j) * math.comb(nr, j)
        for j in range(min(nl, nr) + 1)
    }


_NO_SWAPS = {0: 1}


def contract(terms: Mapping[Key, Any], c) -> Dict[Key, Any]:
    """X^a Y^b -> sum_j swap_counts(a, b)[j] c^j X^(a-j) Y^(b-j) for each
    monomial of `terms`, summed into one dict of their coefficient type."""
    powers = [1]  # c ** j, grown on demand
    out: Dict[Key, Any] = {}
    for (a, b), coeff in terms.items():
        for j, count in swap_counts(a, b).items():
            if j == len(powers):
                powers.append(powers[-1] * c)
            _accumulate(out, (a - j, b - j), coeff * (powers[j] * count) if j else coeff)
    return out


class OrderedPolynomial(TermMap, ExactRing):
    """Immutable map (a, b) -> coefficient for the monomials X^a Y^b."""

    __slots__ = ()

    CONTRACTION: Any  # None when the letters commute
    LETTERS: Tuple[str, str]  # (X, Y)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls({(0, 0): value})

    @classmethod
    def coerce(cls, value):
        return value if isinstance(value, cls) else cls({(0, 0): value})

    @classmethod
    def from_word(cls, word: Iterable[str], coeff=1):
        """Normal-order an arbitrary word over the two letters."""
        x, y = cls.LETTERS
        letters = {x: cls({(1, 0): 1}), y: cls({(0, 1): 1})}
        out = cls.constant(coeff)
        for letter in word:
            if letter not in letters:
                raise ValueError(f"unknown {cls.__name__} letter {letter!r}")
            out = out * letters[letter]
        return out

    # -- queries ---------------------------------------------------------------

    def terms(self):
        return sorted(self._terms.items())

    def coefficient(self, a: int, b: int) -> Expr:
        return self._terms.get((a, b), Expr())

    def degree(self) -> int:
        return max((a + b for a, b in self._terms), default=0)

    # -- ring operations -------------------------------------------------------

    __add__ = __radd__ = term_sum
    __neg__ = term_negation

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            other = self._coerced(other)
            if other is NotImplemented:
                return other
        contraction = self.CONTRACTION
        powers = [1]  # contraction ** j, grown on demand
        terms: Dict[Key, Expr] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                coeff = c1 * c2
                # only the inner Y^b1 X^a2 is disordered
                counts = _NO_SWAPS if contraction is None else swap_counts(b1, a2)
                for j, count in counts.items():
                    if j == len(powers):
                        powers.append(powers[-1] * contraction)
                    key = (a1 + a2 - j, b1 + b2 - j)
                    _accumulate(terms, key, coeff * (powers[j] * count) if j else coeff)
        return self._wrap(terms)

    def __rmul__(self, other):
        other = self._coerced(other)
        return other if other is NotImplemented else other * self

    def inverse(self):
        """Inverse of a nonzero scalar c X^0 Y^0 (`q^0` and `q*p - p*q`
        count) whose coefficient has one; other polynomials have none."""
        if any(key != (0, 0) for key in self._terms):
            raise ZeroDivisionError(f"not an invertible scalar: {self}")
        return self.constant(self.coefficient(0, 0).inverse())

    def __repr__(self):
        from .parsing import format_ordered

        return format_ordered(self)
