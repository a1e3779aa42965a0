"""The result records: immutable named tuples whose constructors validate."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mepack import dynamics, packets
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
    derivatives_classical,
    quadratic_flow,
    trajectory_quadratic,
)
from mepack.errors import DomainError
from mepack.oracle import fock_state
from mepack.packets import DEFAULT_HBAR, PacketMoments
from mepack.partition import GaussianPartition
from mepack.quantum import partition_quantum, solve_multipliers_quantum

PK = PacketMoments(1, 2, 3, 4)  # nu = 24
POT = PolynomialPotential(1, (0, 0, 1))

RECORDS = {
    "PacketMoments": lambda: PK,
    "PolynomialPotential": lambda: POT,
    "DerivativeTable": lambda: derivatives_classical(POT, 1),
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
    assert PK.with_moments(dQ=5) == (1, 2, 5, 4, 1)
    assert repr(PK) == "PacketMoments(Q=1, P=2, dQ=3, dP=4, hbar=1)"
    # equal potentials hash alike (the chain memo relies on it; see
    # test_dynamics.py::test_equal_potentials_share_one_chain_memo_entry)
    assert hash(PolynomialPotential(1, (0, 0, 1))) == hash(POT)


# -- one rule reads every physical number --------------------------------------

_LAM = [Expr.symbol(name) for name in ("lam1", "lam2", "lam3", "lam4")]

# the readers that compute in floats once the rule has passed v; they also
# refuse a v whose float leaves range
_FLOAT_READERS = [
    ("reference volume", lambda v: entropy_classical(PK, v)),
    ("reference volume", lambda v: density_at(PK, 0.5, 1.5, v)),
]
# each reader of a value that must be positive, with the field it names
_POSITIVE_READERS = [
    ("dQ", lambda v: PacketMoments(0, 0, v, 1)),
    ("dP", lambda v: PacketMoments(0, 0, 1, v)),
    ("hbar", lambda v: PacketMoments(0, 0, 1, 1, hbar=v)),
    ("mass", lambda v: PolynomialPotential(v, (0,))),
    ("reference volume", lambda v: solve_multipliers_classical(PK, volume=v)),
    ("reference volume", ClassicalMultipliers.symbols),
    ("reference volume", lambda v: GaussianPartition.from_multipliers(*_LAM, v)),
] + _FLOAT_READERS

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


def _float_refusal(value):
    """What a reader that computes in floats adds to the rule for a value the
    rule passes: the message past the field name where the float leaves
    range, or None."""
    exact = (value.constant_value() if isinstance(value, Expr) else Scalar.coerce(value)).re
    try:
        approx = float(exact)
    except OverflowError:
        approx = math.inf
    if math.isinf(approx) or not approx:
        # the magnitude to two digits, by decimal division rather than logs
        magnitude = Decimal(exact.numerator) / Decimal(exact.denominator)
        return f" must be within float range, got {magnitude:.1e}"
    return None


def _verdict(name, call, value):
    """What `call(value)` refuses, past the field name, or None."""
    try:
        call(value)
    except DomainError as exc:
        assert str(exc).startswith(name)
        return str(exc)[len(name):]
    return None


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_every_reader_refuses_a_value_by_the_one_rule(value):
    expected = _refusal(value)
    for name, call in _POSITIVE_READERS:
        in_floats = expected is None and (name, call) in _FLOAT_READERS
        assert _verdict(name, call, value) == (_float_refusal(value) if in_floats else expected)


def test_exact_packet_fields_beyond_float_range_are_accepted():
    tiny = PacketMoments(0, 0, _TINY, 1)  # as the potential takes such a mass
    assert PolynomialPotential(_TINY, (0,)).mass == Expr.number(_TINY)
    assert tiny.nu == 2 * _TINY
    huge = PacketMoments(0, 0, Fraction(_HUGE), 1)
    assert huge.nu == 2 * _HUGE
    assert PacketMoments(0, 0, 1, 1, hbar=Fraction(_HUGE)).nu == Fraction(2, _HUGE)
    # the float route has no value for them: bindings() and the float nu of
    # require_quantum(strict=True) name the field
    for packet, name in ((tiny, "dQ"), (huge, "dQ"), (PacketMoments(0, 0, _TINY, _HUGE), "dQ"),
                         (PacketMoments(0, 0, 1, 1, hbar=_HUGE), "hbar")):
        with pytest.raises(DomainError, match=f"^{name} must be within float range, got "):
            packet.bindings()
        if packet.nu > 1:
            with pytest.raises(DomainError, match=f"^{name} must be within float range, got "):
                packet.require_quantum(strict=True)


@pytest.mark.parametrize("spread, shown", [(1e200, "2.0e+400"), (1e-200, "2.0e-400")],
                         ids=["1e+200", "1e-200"])
def test_a_float_nu_outside_float_range_is_refused(spread, shown):
    # each field's float is in range; 2*dQ*dP/hbar is not (it read inf, or 0.0)
    packet = PacketMoments(0, 0, spread, spread)
    message = f"^nu must be within float range, got {re.escape(shown)}$"
    with pytest.raises(DomainError, match=message):
        packet.bindings()
    if packet.nu > 1:
        with pytest.raises(DomainError, match=message):
            packet.require_quantum(strict=True)


@pytest.mark.parametrize("value, shown", [
    (10 ** 400, "1.0e+400"), (-10 ** 400, "-1.0e+400"), (99999 * 10 ** 400, "1.0e+405"),
    (Fraction(3, 10 ** 400), "3.0e-400"), (Fraction(-25, 10 ** 401), "-2.5e-400"),
])
def test_a_float_range_refusal_shows_the_magnitude(value, shown):
    with pytest.raises(DomainError) as info:
        packets.float_value(value, "x")
    assert str(info.value) == f"x must be within float range, got {shown}"


def test_a_float_nu_in_range_is_kept():
    # the float product as it was, and the exact nu's float where only the
    # product left range on the way
    assert PacketMoments(0, 0, 1e150, 1e150).bindings()["nu"] == 2.0 * 1e150 * 1e150
    assert PacketMoments(0, 0, 0.3, 0.7, hbar=0.1).bindings()["nu"] == 2.0 * 0.3 * 0.7 / 0.1
    packet = PacketMoments(0, 0, 1e200, 1e200, hbar=1e300)
    assert packet.bindings()["nu"] == float(packet.nu)
    assert math.isfinite(packet.bindings()["Lnu"])  # it was nan


@pytest.mark.parametrize("potential, field", [
    (PolynomialPotential(10 ** 400, (0, 0, 1)), "mass"),
    (PolynomialPotential(1, (0, 0, 10 ** 400)), "coefficient V2"),
    (PolynomialPotential(1, (0, _TINY, 1)), "coefficient V1"),
], ids=["mass-10^400", "V2-10^400", "V1-10^-400"])
def test_a_potential_number_outside_float_range_is_named(potential, field):
    with pytest.raises(DomainError, match=f"^{field} must be within float range, got "):
        potential.mass_value() if field == "mass" else potential.coefficient(int(field[-1]))
    # the closed form names the field, not a time
    with pytest.raises(DomainError, match=f"^{field} must be within float range, got "):
        dynamics.evolve_quadratic(PK, potential, 1.0)


def test_a_symbolic_hbar_is_refused():
    with pytest.raises(DomainError, match="^hbar must be a number, got hbar$"):
        PacketMoments(0, 0, 1, 1, hbar=Expr.symbol("hbar"))


def test_a_packet_without_hbar_is_the_packet_with_hbar_one():
    default, explicit = PacketMoments(0, 0, 1, 1), PacketMoments(0, 0, 1, 1, hbar=1)
    assert default == explicit and hash(default) == hash(explicit)
    assert default.hbar == DEFAULT_HBAR == 1
    # None is no number, for hbar as for any other field
    for build in (lambda: PacketMoments(0, 0, 1, 1, hbar=None),
                  lambda: PacketMoments(0, 0, None, 1)):
        with pytest.raises(TypeError, match="NoneType"):
            build()


@pytest.mark.parametrize("two", [2, 2.0, Fraction(2), 2 + 0j, Scalar(2), Expr.number(2)],
                         ids=["int", "float", "Fraction", "complex", "Scalar", "Expr"])
def test_a_packet_holds_the_number_the_rule_read(two):
    packet = PacketMoments(1, Fraction(1, 2), two, 3)
    reference = PacketMoments(1, Fraction(1, 2), 2, 3)
    assert type(packet.dQ) in (int, float, Fraction)
    assert packet == reference and hash(packet) == hash(reference)
    assert packet.bindings() == reference.bindings()
    assert packet.nu == reference.nu and type(packet.nu) is Fraction
    expr = Expr.symbol("dQ") ** 2 * Expr.symbol("nu") + Expr.symbol("Q") * Expr.symbol("hbar")
    assert packet.specialize(expr) == reference.specialize(expr)


def test_a_built_packet_and_potential_are_read_without_the_rule(monkeypatch):
    numeric = PacketMoments(Fraction(1, 2), 0.25, 2 + 0j, Expr.number(3), hbar=Fraction(1, 10))
    mixed = PacketMoments(Expr.symbol("Q"), 0, 1, Fraction(3, 2))
    potential = PolynomialPotential(2, (0, 1, Expr.number(3)))
    calls = []
    for module in (packets, dynamics):
        monkeypatch.setattr(module, "exact_value",
                            lambda *args, real=module.exact_value, **kw:
                            calls.append(args) or real(*args, **kw))
    expr = Expr.symbol("Q") * Expr.symbol("dP") + Expr.symbol("nu")
    for packet in (numeric, mixed):
        packet.nu, packet.is_symbolic, packet.specialize(expr)
        packet.require_quantum(strict=True)
    numeric.bindings()
    potential.coefficient(2), potential.mass_value()
    assert calls == []


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
