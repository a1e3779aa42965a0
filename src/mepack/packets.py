"""Packet data: prescribed averages and spreads of position and momentum.

A packet is the tuple (Q, P, dQ, dP) per degree of freedom; everything
else about the state is derived.  Fields may be numbers (exact rationals
preferred, floats accepted) or symbolic expressions; `PacketMoments.symbolic()`
gives the canonical all-symbol packet that the algebraic pipelines use.

The uncertainty ratio nu = 2*dQ*dP/hbar measures the phase-space area of
the packet in units of hbar/2; nu = 1 is the quantum minimum.  An unset
hbar is `DEFAULT_HBAR`.

The engine computes every average in packet symbols.  A numeric packet's
values enter an exact result in one place, `PacketMoments.specialize`,
which substitutes Q, P, dQ, dP and the exact `nu` (floats as the dyadic
rationals they are); symbolic packets leave the expression as it is.  The
float route is `bindings()`, the values that `Expr.evaluate` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .algebra.expression import Expr
from .errors import DomainError, PureStateLimitError

Number = Union[int, float, Fraction]
FieldValue = Union[Number, Expr]

DEFAULT_HBAR = 1


def _numeric(value: FieldValue) -> Optional[float]:
    if isinstance(value, Expr):
        if value.is_constant():
            c = value.constant_value()
            return float(c.re) if c.is_real() else None
        return None
    return float(value)


@dataclass(frozen=True)
class PacketMoments:
    Q: FieldValue
    P: FieldValue
    dQ: FieldValue
    dP: FieldValue
    hbar: Optional[Number] = None

    def __post_init__(self):
        for name in ("Q", "P", "dQ", "dP", "hbar"):
            value = getattr(self, name)  # exact values are always finite
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        for name in ("dQ", "dP"):
            value = _numeric(getattr(self, name))
            if value is not None and value <= 0:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.hbar is not None and float(self.hbar) <= 0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")

    @classmethod
    def symbolic(cls) -> "PacketMoments":
        return cls(
            Expr.symbol("Q"), Expr.symbol("P"), Expr.symbol("dQ"), Expr.symbol("dP")
        )

    @property
    def is_symbolic(self) -> bool:
        return any(
            _numeric(getattr(self, name)) is None for name in ("Q", "P", "dQ", "dP")
        )

    # -- derived quantities ---------------------------------------------------

    @property
    def nu(self) -> FieldValue:
        """Uncertainty ratio 2*dQ*dP/hbar; an exact rational for a numeric packet."""
        if self.is_symbolic:
            return Expr.symbol("nu")
        hbar = self.hbar if self.hbar is not None else DEFAULT_HBAR
        dQ, dP = (Expr.coerce(v).constant_value().re for v in (self.dQ, self.dP))
        return 2 * dQ * dP / Fraction(hbar)

    def nu_value(self) -> float:
        if self.is_symbolic:
            raise DomainError("symbolic packet has no numeric uncertainty ratio")
        return float(self.nu)

    def specialize(self, expr: Expr) -> Expr:
        """Substitute a numeric packet's Q, P, dQ, dP and nu exactly;
        symbolic packets leave the expression as it is."""
        if self.is_symbolic:
            return expr
        values = {name: getattr(self, name) for name in ("Q", "P", "dQ", "dP")}
        values["nu"] = self.nu
        return expr.substitute(values)

    def bindings(self) -> dict:
        """Numeric bindings for Expr.evaluate; symbolic packets refuse."""
        if self.is_symbolic:
            raise DomainError("symbolic packet cannot be bound numerically")
        hbar = float(self.hbar if self.hbar is not None else DEFAULT_HBAR)
        out = {
            "Q": _numeric(self.Q),
            "P": _numeric(self.P),
            "dQ": _numeric(self.dQ),
            "dP": _numeric(self.dP),
            "hbar": hbar,
            "pi": math.pi,
        }
        out["nu"] = 2.0 * out["dQ"] * out["dP"] / hbar
        out["Lnu"] = (
            math.log((out["nu"] + 1.0) / (out["nu"] - 1.0)) if out["nu"] > 1 else math.inf
        )
        return out

    def require_quantum(self, strict: bool = False):
        """Enforce nu >= 1 (or > 1) for numeric packets on the exact `nu`;
        symbolic ones pass."""
        if self.is_symbolic:
            return
        nu = self.nu
        if nu < 1:
            shown = float(nu) if float(nu) < 1 else f"1 - {float(1 - nu):.3g}"
            raise DomainError(
                f"uncertainty ratio nu = {shown} violates the bound 2*dQ*dP >= hbar"
            )
        # the multipliers are evaluated on the float nu of bindings(), which
        # can round an exact nu just above 1 down to 1.0, where Lnu is inf
        if strict and (nu == 1 or self.bindings()["nu"] <= 1):
            raise PureStateLimitError(
                "nu = 1 packet (exactly, or as the float nu) is the pure Gaussian "
                "state; multipliers diverge there"
            )

    def with_moments(self, Q=None, P=None, dQ=None, dP=None) -> "PacketMoments":
        return replace(
            self,
            Q=self.Q if Q is None else Q,
            P=self.P if P is None else P,
            dQ=self.dQ if dQ is None else dQ,
            dP=self.dP if dP is None else dP,
        )
