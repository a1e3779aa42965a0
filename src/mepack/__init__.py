"""Maximum-entropy packets: exact moments, entropy, and dynamics.

The package constructs the classical and quantum states that maximize
entropy for prescribed averages and spreads of position and momentum,
computes arbitrary polynomial moments of them exactly, evolves them under
polynomial potentials, and quantifies how far the quantum averaged
dynamics departs from the classical one, order by order in the inverse
uncertainty ratio 1/nu.

Layers:

- `mepack.algebra`: exact scalars/expressions, commutative phase-space
  polynomials with the Poisson bracket, noncommutative Weyl and ladder
  polynomials with normal ordering, the number-basis diagonal, text parser.
- `mepack.classical` / `mepack.quantum`: multipliers, partition
  functions, moments, entropy, Fock weights, the ground wavefunction.
- `mepack.dynamics`: quadratic closed-form evolution, Taylor derivative
  tables, averaged equations, quantum corrections, propagation.
- `mepack.oracle`: independent Fock-matrix and quadrature cross-checks.
- `mepack.cli`: the `mepack run` batch front end.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    Expr,
    LadderPolynomial,
    PhasePolynomial,
    Scalar,
    WeylPolynomial,
    commutator,
    diagonal_part,
    parse_expression,
    parse_ladder,
    parse_phase,
    parse_weyl,
    poisson_bracket,
    to_ladder,
)
from .classical import (
    ClassicalMultipliers,
    density_at,
    entropy_classical,
    moment_classical,
    partition_classical,
    solve_multipliers_classical,
)
from .dynamics import (
    DerivativeTable,
    PolynomialPotential,
    QuadraticFlow,
    Trajectory,
    averaged_derivatives,
    averaged_p_derivatives,
    derivatives_classical,
    derivatives_quantum,
    evolve_quadratic,
    propagate,
    quadratic_flow,
    quantum_correction,
    trajectory_quadratic,
)
from .errors import (
    CutoffError,
    DomainError,
    HorizonError,
    MepackError,
    PureStateLimitError,
    ValidationError,
)
from .oracle import (
    FockState,
    fock_evolve,
    fock_expectation,
    fock_state,
    gaussian_moment_numeric,
    state_entropy,
    state_moments,
)
from .packets import PacketMoments
from .partition import GaussianPartition, QuantumPartition
from .quantum import (
    QuantumMultipliers,
    entropy_from_multipliers,
    entropy_quantum,
    entropy_weight_sum,
    expectation_quantum,
    expectation_value,
    fock_weight,
    ground_wavefunction,
    log_ratio_factor,
    partition_quantum,
    restore_hbar,
    solve_multipliers_quantum,
    stationarity_defect,
)
from .version import __version__

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
