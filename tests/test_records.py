"""The result records: immutable named tuples whose constructors validate."""

import pytest

from mepack.classical import ClassicalMultipliers, partition_classical, solve_multipliers_classical
from mepack.dynamics import (
    PolynomialPotential,
    averaged_derivatives,
    derivatives_classical,
    quadratic_flow,
    trajectory_quadratic,
)
from mepack.errors import DomainError
from mepack.oracle import fock_state
from mepack.packets import PacketMoments
from mepack.quantum import partition_quantum, solve_multipliers_quantum

PK = PacketMoments(1, 2, 3, 4)  # nu = 24
POT = PolynomialPotential(1, (0, 0, 1))

RECORDS = {
    "PacketMoments": lambda: PK,
    "PolynomialPotential": lambda: POT,
    "DerivativeTable": lambda: derivatives_classical(POT, 1),
    "AveragedDerivatives": lambda: averaged_derivatives(derivatives_classical(POT, 1), PK),
    "QuadraticFlow": lambda: quadratic_flow(POT, 0.5),
    "Trajectory": lambda: trajectory_quadratic(PK, POT, [0.0, 0.5]),
    "FockState": lambda: fock_state(PacketMoments(0.0, 0.0, 1.0, 1.0, hbar=1.0)),
    "GaussianPartition": lambda: partition_classical(solve_multipliers_classical(PK)),
    "QuantumPartition": lambda: partition_quantum(solve_multipliers_quantum(PK)),
    "ClassicalMultipliers": ClassicalMultipliers.symbols,
    "QuantumMultipliers": lambda: solve_multipliers_quantum(PK),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_named_tuples(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name and isinstance(record, tuple)
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, first) is record[0]


def test_record_constructors_still_validate():
    with pytest.raises(DomainError, match="dQ must be positive"):
        PK.with_moments(dQ=-1)
    with pytest.raises(DomainError, match="mass must be positive"):
        PolynomialPotential(0, (1,))
    assert PK.with_moments(dQ=5) == (1, 2, 5, 4, None)
    assert repr(PK) == "PacketMoments(Q=1, P=2, dQ=3, dP=4, hbar=None)"
    # equal potentials hash alike (the chain memo relies on it; see
    # test_dynamics.py::test_equal_potentials_share_one_chain_memo_entry)
    assert hash(PolynomialPotential(1, (0, 0, 1))) == hash(POT)
