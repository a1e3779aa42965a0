"""Exact symbolic kernel: expressions, phase-space, Weyl and ladder algebras."""

from types import ModuleType as _ModuleType

from .expression import Expr, sqrt_monomial
from .ladder import (
    LadderPolynomial,
    diagonal_part,
    falling_to_powers,
    ladder_p,
    ladder_q,
    stirling_first_signed,
    to_ladder,
)
from .parsing import (
    ParseError,
    format_expression,
    format_ladder,
    format_nu_polynomial,
    format_phase,
    format_weyl,
    parse_expression,
    parse_ladder,
    parse_phase,
    parse_weyl,
)
from .phase import PhasePolynomial, poisson_bracket
from .scalar import Scalar
from .weyl import WeylPolynomial, commutator

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
