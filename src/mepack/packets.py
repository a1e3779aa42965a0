"""Packet data: prescribed averages and spreads of position and momentum.

A packet is the tuple (Q, P, dQ, dP) per degree of freedom; everything
else about the state is derived.  Fields may be numbers (exact rationals
preferred, floats accepted) or symbolic expressions; `PacketMoments.symbolic()`
gives the canonical all-symbol packet that the algebraic pipelines use.

The uncertainty ratio nu = 2*dQ*dP/hbar measures the phase-space area of
the packet in units of hbar/2; nu = 1 is the quantum minimum.  An unset
hbar is `DEFAULT_HBAR`.

The engine computes every average in packet symbols.  A packet's values
enter an exact result in one place, `PacketMoments.specialize`, which
substitutes every field that is not its own bare symbol (floats as the
dyadic rationals they are), and the exact `nu` once dQ and dP are numbers;
so a mixed packet keeps its numbers, and `PacketMoments.symbolic()` leaves
the expression as it is.  The float route is `bindings()`, the values that
`Expr.evaluate` reads.

Every physical number in the package is read by one rule, `exact_value`:
the packet fields and hbar, the potential's mass and coefficients, the
reference volume and the multipliers lam3, lam4.  A number or a constant
`Expr` is read exactly (a float as the dyadic rational it is), and a value
with symbols passes.  DomainError names the field where the value is not
finite, not real, or, where positivity is asked, not above zero.  So a
packet field of `Fraction(1, 10**400)` or `10**400` is as good as a
potential's mass of that size, and a reference volume of nan, 0 or -1 is
refused by every reader.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
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


class PacketMoments(namedtuple("PacketMoments", _FIELDS + ("hbar",))):
    """Q, P, dQ, dP: a `FieldValue` each; hbar: a number, None for `DEFAULT_HBAR`."""

    __slots__ = ()

    def __new__(cls, Q, P, dQ, dP, hbar=None):
        self = super().__new__(cls, Q, P, dQ, dP, hbar)
        for name in self._fields:
            self._exact(name)
        return self

    def _exact(self, name: str) -> Optional[Fraction]:
        """The field's `exact_value`; dQ, dP and hbar must be positive."""
        value = getattr(self, name)
        if name == "hbar" and value is None:
            value = DEFAULT_HBAR
        return exact_value(value, name, positive=name not in ("Q", "P"))

    @classmethod
    def symbolic(cls) -> "PacketMoments":
        return cls(*_BARE.values())

    @property
    def is_symbolic(self) -> bool:
        return any(self._exact(name) is None for name in _FIELDS)

    # -- derived quantities ---------------------------------------------------

    @property
    def nu(self) -> FieldValue:
        """Uncertainty ratio 2*dQ*dP/hbar: an exact rational once dQ and dP
        are numbers, else the symbol nu."""
        dQ, dP = self._exact("dQ"), self._exact("dP")
        if dQ is None or dP is None:
            return Expr.symbol("nu")
        return 2 * dQ * dP / self._exact("hbar")

    def nu_value(self) -> float:
        nu = self.nu
        if isinstance(nu, Expr):
            raise DomainError("symbolic dQ or dP gives no numeric uncertainty ratio")
        return float(nu)

    def _float_nu(self) -> float:
        """nu from the float fields, as `bindings()` gives it."""
        dQ, dP, hbar = (float(self._exact(name)) for name in ("dQ", "dP", "hbar"))
        return 2.0 * dQ * dP / hbar

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
        out = {name: float(self._exact(name)) for name in self._fields}
        out["pi"] = math.pi
        out["nu"] = self._float_nu()
        out["Lnu"] = (
            math.log((out["nu"] + 1.0) / (out["nu"] - 1.0)) if out["nu"] > 1 else math.inf
        )
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
