"""Packet data: prescribed averages and spreads of position and momentum.

A packet is the tuple (Q, P, dQ, dP) per degree of freedom; everything
else about the state is derived.  Fields may be numbers (exact rationals
preferred, floats accepted) or symbolic expressions; `PacketMoments.symbolic()`
gives the canonical all-symbol packet that the algebraic pipelines use.

The uncertainty ratio nu = 2*dQ*dP/hbar measures the phase-space area of
the packet in units of hbar/2; nu = 1 is the quantum minimum.  hbar
defaults to `DEFAULT_HBAR`, so a packet that leaves it out equals, and
hashes as, the same packet with hbar = 1.

The engine computes every average in packet symbols.  A packet's values
enter an exact result in one place, `PacketMoments.specialize`, which
substitutes every field that is not its own bare symbol (floats as the
dyadic rationals they are), and the exact `nu` once dQ and dP are numbers;
so a mixed packet keeps its numbers, and `PacketMoments.symbolic()` leaves
the expression as it is.  The float route is `bindings()`, the values that
`Expr.evaluate` reads.

Every physical number in the package is read by one rule, `exact_value`,
once, where it enters: the packet fields and hbar, the potential's mass
and coefficients, the reference volume and the multipliers lam3, lam4.  A
number or a constant `Expr` is read exactly (a float as the dyadic rational
it is), and a value with symbols passes.  DomainError names the field where
the value is not finite, not real, or, where positivity is asked, not
above zero.  A packet holds what the rule read: an int, `Fraction` or float
as given, any other constant (a constant `Expr`, a `Scalar`, `2+0j`) as its
`Fraction`, and a value with symbols as given; hbar must be a number.  So a
packet field of `Fraction(1, 10**400)` or `10**400` is as good as a
potential's mass of that size, and a reference volume of nan, 0 or -1 is
refused by every reader.  The float route reads the held numbers through
`float_value`, which names the field whose float leaves range and gives
the value's magnitude (`nu must be within float range, got 2.0e+400`):
`bindings()` of such a packet raises DomainError, and so does a reference
volume of that size in `entropy_classical` and `density_at`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

from .algebra.expression import Expr
from .errors import DomainError, PureStateLimitError

Number = Union[int, float, Fraction]
FieldValue = Union[Number, Expr]

DEFAULT_HBAR = 1

_FIELDS = ("Q", "P", "dQ", "dP")
_BARE = {name: Expr.symbol(name) for name in _FIELDS}


def exact_value(value: FieldValue, name: str, positive: bool = False) -> Optional[Fraction]:
    """The exact real value of a number or a constant `Expr`; None for a
    value with symbols.  DomainError, naming the field, where the value is
    not finite, not real, or (with `positive`) not above zero."""
    try:
        exact = Expr.coerce(value)
    except (ValueError, OverflowError):  # nan and inf have no exact value
        raise DomainError(f"{name} must be finite, got {value}") from None
    if not exact.is_constant():
        return None
    scalar = exact.constant_value()
    if not scalar.is_real():
        raise DomainError(f"{name} must be real, got {value}")
    if positive and scalar.re <= 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return scalar.re


def float_value(value: Number, name: str) -> float:
    """The float of a number the rule has read; DomainError, naming the
    field and the value's magnitude, where that float leaves range (it
    overflows, or it is 0.0 for a value that is not zero)."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if math.isinf(out) or (value and not out):
        raise DomainError(f"{name} must be within float range, got {_magnitude(value)}")
    return out


def _magnitude(value: Number) -> str:
    """A nonzero number of any size to two digits, as 2.0e+400: `math.log10`
    reads an int of any length, so no float overflows on the way."""
    if not isinstance(value, Rational):
        return str(value)  # a float is its own float
    log = math.log10(abs(value.numerator)) - math.log10(value.denominator)
    exponent = math.floor(log)
    mantissa = round(10 ** (log - exponent), 1)
    if mantissa == 10:
        mantissa, exponent = 1.0, exponent + 1
    return f"{'-' if value < 0 else ''}{mantissa:.1f}e{exponent:+03d}"


class PacketMoments(namedtuple("PacketMoments", _FIELDS + ("hbar",))):
    """Q, P, dQ, dP: a `FieldValue` each; hbar: a number."""

    __slots__ = ()

    def __new__(cls, Q, P, dQ, dP, hbar=DEFAULT_HBAR):
        held = [Q, P, dQ, dP, hbar]  # read once, here; a number type is held as given
        for i, name in enumerate(cls._fields):
            exact = exact_value(held[i], name, positive=name not in ("Q", "P"))
            if exact is None and name == "hbar":
                raise DomainError(f"hbar must be a number, got {hbar}")
            if exact is not None and not isinstance(held[i], (Rational, float)):
                held[i] = exact
        return super().__new__(cls, *held)

    @classmethod
    def symbolic(cls) -> "PacketMoments":
        return cls(*_BARE.values())

    @property
    def is_symbolic(self) -> bool:
        return any(isinstance(getattr(self, name), Expr) for name in _FIELDS)

    # -- derived quantities ---------------------------------------------------

    @property
    def nu(self) -> FieldValue:
        """Uncertainty ratio 2*dQ*dP/hbar: an exact rational once dQ and dP
        are numbers, else the symbol nu."""
        if isinstance(self.dQ, Expr) or isinstance(self.dP, Expr):
            return Expr.symbol("nu")
        return 2 * Fraction(self.dQ) * Fraction(self.dP) / Fraction(self.hbar)

    def nu_value(self) -> float:
        nu = self.nu
        if isinstance(nu, Expr):
            raise DomainError("symbolic dQ or dP gives no numeric uncertainty ratio")
        return float(nu)

    def _float_nu(self) -> float:
        """nu from the float fields, as `bindings()` gives it; the exact nu's
        float where that product leaves float range on the way."""
        dQ, dP = float_value(self.dQ, "dQ"), float_value(self.dP, "dP")
        nu = 2.0 * dQ * dP / float_value(self.hbar, "hbar")
        return nu if nu and not math.isinf(nu) else float_value(self.nu, "nu")

    def specialize(self, expr: Expr) -> Expr:
        """Substitute every field that is not its own bare symbol, and the
        exact nu once dQ and dP are numbers; `symbolic()` leaves the
        expression as it is."""
        values = {name: getattr(self, name) for name in _FIELDS
                  if _BARE[name] != getattr(self, name)}
        nu = self.nu
        if not isinstance(nu, Expr):
            values["nu"] = nu
        return expr.substitute(values) if values else expr

    def bindings(self) -> dict:
        """Numeric bindings for Expr.evaluate; symbolic packets refuse."""
        if self.is_symbolic:
            raise DomainError("symbolic packet cannot be bound numerically")
        out = {name: float_value(getattr(self, name), name) for name in _FIELDS}
        out["hbar"] = float_value(self.hbar, "hbar")
        out["pi"] = math.pi
        out["nu"] = self._float_nu()
        # log1p keeps the digits that ln((nu+1)/(nu-1)) loses as nu grows
        out["Lnu"] = math.log1p(2.0 / (out["nu"] - 1.0)) if out["nu"] > 1 else math.inf
        return out

    def require_quantum(self, strict: bool = False):
        """Enforce nu >= 1 (or > 1) on the exact `nu` once dQ and dP are
        numbers; a symbolic nu passes."""
        nu = self.nu
        if isinstance(nu, Expr):
            return
        if nu < 1:
            shown = float(nu) if float(nu) < 1 else f"1 - {float(1 - nu):.3g}"
            raise DomainError(
                f"uncertainty ratio nu = {shown} violates the bound 2*dQ*dP >= hbar"
            )
        # the multipliers are evaluated on the float nu of bindings(), which
        # can round an exact nu just above 1 down to 1.0, where Lnu is inf
        if strict and (nu == 1 or self._float_nu() <= 1):
            raise PureStateLimitError(
                "nu = 1 packet (exactly, or as the float nu) is the pure Gaussian "
                "state; multipliers diverge there"
            )

    def with_moments(self, Q=None, P=None, dQ=None, dP=None) -> "PacketMoments":
        # the constructor, not `_replace`, so that the new values are checked
        return type(self)(
            self.Q if Q is None else Q,
            self.P if P is None else P,
            self.dQ if dQ is None else dQ,
            self.dP if dP is None else dP,
            self.hbar,
        )
