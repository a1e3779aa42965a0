"""The result records: immutable named tuples whose constructors validate."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack.algebra.expression import Expr
from mepack.algebra.scalar import Scalar
from mepack.classical import (
    ClassicalMultipliers,
    density_at,
    entropy_classical,
    partition_classical,
    solve_multipliers_classical,
)
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
from mepack.partition import GaussianPartition
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


# -- one rule reads every physical number --------------------------------------

_LAM = [Expr.symbol(name) for name in ("lam1", "lam2", "lam3", "lam4")]

# each reader of a value that must be positive, with the field it names
_POSITIVE_READERS = [
    ("dQ", lambda v: PacketMoments(0, 0, v, 1)),
    ("dP", lambda v: PacketMoments(0, 0, 1, v)),
    ("hbar", lambda v: PacketMoments(0, 0, 1, 1, hbar=v)),
    ("mass", lambda v: PolynomialPotential(v, (0,))),
    ("reference volume", lambda v: solve_multipliers_classical(PK, volume=v)),
    ("reference volume", ClassicalMultipliers.symbols),
    ("reference volume", lambda v: GaussianPartition.from_multipliers(*_LAM, v)),
    ("reference volume", lambda v: entropy_classical(PK, v)),
    ("reference volume", lambda v: density_at(PK, 0.5, 1.5, v)),
]

_TINY, _HUGE = Fraction(1, 10 ** 400), 10 ** 400
_NUMBERS = st.one_of(
    st.integers(-3, 3).map(lambda k: k * _TINY),
    st.sampled_from([_HUGE, -_HUGE, 0, -1, 1, Fraction(3, 2)]),
    st.fractions(),
    st.floats(),  # nan and both infinities included
    st.sampled_from([1 + 2j, 2j, complex(-1, 1e-300)]),
)
_VALUES = st.one_of(
    _NUMBERS,
    _NUMBERS.filter(lambda x: not isinstance(x, float)).map(Expr.number),
    st.just(Expr.i()),
)


def _refusal(value):
    """The rule's verdict on a value that must be positive: the message past
    the field name, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return f" must be finite, got {value}"
    scalar = value.constant_value() if isinstance(value, Expr) else Scalar.coerce(value)
    if not scalar.is_real():
        return f" must be real, got {value}"
    return f" must be positive, got {value}" if scalar.re <= 0 else None


def _verdict(name, call, value):
    """What `call(value)` refuses, past the field name, or None."""
    try:
        call(value)
    except DomainError as exc:
        assert str(exc).startswith(name)
        return str(exc)[len(name):]
    except (OverflowError, ZeroDivisionError):
        # entropy_classical and density_at compute in floats once the rule
        # has passed a value; 10**400 and 1/10**400 are beyond that range
        assert name == "reference volume" and not isinstance(value, float)
    return None


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_every_reader_refuses_a_value_by_the_one_rule(value):
    expected = _refusal(value)
    for name, call in _POSITIVE_READERS:
        assert _verdict(name, call, value) == expected


def test_exact_packet_fields_beyond_float_range_are_accepted():
    tiny = PacketMoments(0, 0, _TINY, 1)  # as the potential takes such a mass
    assert PolynomialPotential(_TINY, (0,)).mass == Expr.number(_TINY)
    assert tiny.nu == 2 * _TINY and tiny.bindings()["dQ"] == 0.0
    huge = PacketMoments(0, 0, Fraction(_HUGE), 1)
    assert huge.nu == 2 * _HUGE
    assert PacketMoments(0, 0, 1, 1, hbar=Fraction(_HUGE)).nu == Fraction(2, _HUGE)
    # the float route has no value for them: bindings() overflows
    for packet in (huge, PacketMoments(0, 0, 1, 1, hbar=_HUGE)):
        with pytest.raises(OverflowError):
            packet.bindings()


@pytest.mark.parametrize("v", [-1, 0])
def test_the_multipliers_refuse_a_volume_that_is_not_positive(v):
    for call in (lambda: solve_multipliers_classical(PK, volume=v),
                 lambda: ClassicalMultipliers.symbols(v)):
        with pytest.raises(DomainError, match=f"^reference volume must be positive, got {v}$"):
            call()


def test_every_volume_reader_refuses_nan():
    for call in [call for name, call in _POSITIVE_READERS if name == "reference volume"]:
        with pytest.raises(DomainError, match="^reference volume must be finite, got nan$"):
            call(math.nan)
