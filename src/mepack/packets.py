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


def _numeric(value: FieldValue) -> Optional[float]:
    """The float of a number field (`PacketMoments` refuses non-real
    constants); None for a symbolic one."""
    if isinstance(value, Expr):
        return float(value.constant_value().re) if value.is_constant() else None
    return float(value)


class PacketMoments(namedtuple("PacketMoments", _FIELDS + ("hbar",))):
    """Q, P, dQ, dP: a `FieldValue` each; hbar: a number, None for `DEFAULT_HBAR`."""

    __slots__ = ()

    def __new__(cls, Q, P, dQ, dP, hbar=None):
        self = super().__new__(cls, Q, P, dQ, dP, hbar)
        for name in ("Q", "P", "dQ", "dP", "hbar"):
            value = getattr(self, name)  # exact values are always finite
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if isinstance(value, complex) or (isinstance(value, Expr) and value.is_constant()
                                              and not value.constant_value().is_real()):
                raise DomainError(f"{name} must be real, got {value}")
        for name in ("dQ", "dP"):
            value = _numeric(getattr(self, name))
            if value is not None and value <= 0:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.hbar is not None and float(self.hbar) <= 0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")
        return self

    @classmethod
    def symbolic(cls) -> "PacketMoments":
        return cls(*_BARE.values())

    @property
    def is_symbolic(self) -> bool:
        return any(_numeric(getattr(self, name)) is None for name in _FIELDS)

    # -- derived quantities ---------------------------------------------------

    @property
    def nu(self) -> FieldValue:
        """Uncertainty ratio 2*dQ*dP/hbar: an exact rational once dQ and dP
        are numbers, else the symbol nu."""
        if _numeric(self.dQ) is None or _numeric(self.dP) is None:
            return Expr.symbol("nu")
        hbar = self.hbar if self.hbar is not None else DEFAULT_HBAR
        dQ, dP = (Expr.coerce(v).constant_value().re for v in (self.dQ, self.dP))
        return 2 * dQ * dP / Fraction(hbar)

    def nu_value(self) -> float:
        nu = self.nu
        if isinstance(nu, Expr):
            raise DomainError("symbolic dQ or dP gives no numeric uncertainty ratio")
        return float(nu)

    def _float_nu(self) -> float:
        """nu from the float fields, as `bindings()` gives it."""
        hbar = float(self.hbar if self.hbar is not None else DEFAULT_HBAR)
        return 2.0 * _numeric(self.dQ) * _numeric(self.dP) / hbar

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
        out = {name: _numeric(getattr(self, name)) for name in _FIELDS}
        out["hbar"] = float(self.hbar if self.hbar is not None else DEFAULT_HBAR)
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
