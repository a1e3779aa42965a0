"""Batch front end: scenario files in, CSV/JSON/report artifacts out.

Usage:
    mepack run scenario.json [--out DIR] [--mode MODE] [--expr "q*p"]
                             [--nu LIST] [--order N] [--cutoff N]

A scenario is one JSON object with the sections packet, potential, run
and output; exact rationals are accepted as strings ("3/2").  Each flag
replaces its run or output value before `Scenario` reads the object, so
flags and file pass the same checks in one pass: an unknown key, a value
of the wrong type, an empty `expressions` or `orders` list, an order below
1 (below 2 for Taylor propagation) or above `MAX_ORDER`, or a grid without
points or with more than `MAX_GRID_POINTS` is a validation failure.  So is
an expression of degree above `MAX_EXPRESSION_DEGREE`, found when the
expressions are parsed, before any of them is computed.

Exit codes: 0 success, 2 validation failure, 3 numeric horizon/cutoff
failure or a float that leaves range (also an oracle-check delta over
`ORACLE_CHECK_BOUND` or nan, after the outputs are written), 4 I/O failure.

Data files are deterministic: identical configs give byte identical
CSV/JSON, and run metadata lives in the report footer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .algebra import (
    ParseError,
    format_expression,
    format_phase,
    format_weyl,
    parse_weyl,
)
from .algebra.expression import Expr
from .algebra.parsing import _join_terms
from .algebra.phase import PhasePolynomial
from .classical import moment_classical
from .dynamics import (
    PolynomialPotential,
    Trajectory,
    averaged_p_derivatives,
    derivatives_classical,
    derivatives_quantum,
    propagate,
    quantum_correction,
    trajectory_quadratic,
)
from .errors import CutoffError, DomainError, HorizonError, MepackError, ValidationError
from .oracle import fock_expectation, fock_state, gaussian_moment_numeric
from .packets import PacketMoments
from .quantum import expectation_quantum, restore_hbar
from .version import __version__

PROPAGATIONS = (None, "quadratic", "taylor-origin", "repacketized-stepping")
FORMATS = ("csv", "json", "txt")
RUN_KEYS = ("mode", "kind", "grid", "order", "orders", "propagation", "nu_sweep", "cutoff",
            "expressions", "v")

TRAJECTORY_COLUMNS = ("t", "Q", "P", "dQ", "dP", "nu", "S")
# the most times one grid may hold; the bundled scenarios use at most 21
MAX_GRID_POINTS = 100_000
# the highest order (run.order, run.orders) and expression degree a run may
# ask for; the bundled scenarios use at most order 6 and degree 4, the
# tests order 8 and degree 24
MAX_ORDER = 16
MAX_EXPRESSION_DEGREE = 28

_DEFAULT_EXPRESSIONS = ("q", "p", "q^2", "p^2", "q*p", "p*q^2*p")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for doubles."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# scenario loading / validation
# ---------------------------------------------------------------------------


@contextmanager
def _in_float_range(field: str, what: str):
    """Name the field and value in an OverflowError, which main exits 3 on."""
    try:
        yield
    except OverflowError:
        raise OverflowError(f"{field}: {what} is beyond float range") from None


def _number(value, field: str):
    """An int, float or rational literal whose float is finite, and nonzero
    when the value is: every scenario number is read here."""
    if isinstance(value, bool):
        raise ValidationError("expected a number", field)
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}: {exc}", field)
    elif isinstance(value, (int, float)):
        number = value
    else:
        raise ValidationError(f"expected a number, got {type(value).__name__}", field)
    try:
        approx = float(number)
    except OverflowError:
        raise ValidationError(f"{value} is beyond float range", field) from None
    if not math.isfinite(approx):  # JSON NaN, Infinity
        raise ValidationError(f"expected a finite number, got {value}", field)
    if not approx and number:
        raise ValidationError(f"{value} is below float range (its float is 0)", field)
    return number


def _integer(value, field: str) -> int:
    """A positive integer: orders and the Fock cutoff count from 1."""
    number = _number(value, field)
    if (isinstance(number, float) and not number.is_integer()) or int(number) != number:
        raise ValidationError(f"expected an integer, got {value!r}", field)
    if number < 1:
        raise ValidationError(f"must be at least 1, got {value!r}", field)
    return int(number)


def _order(value, field: str) -> int:
    """A derivative or Taylor order, from 1 to `MAX_ORDER`."""
    order = _integer(value, field)
    if order > MAX_ORDER:
        raise ValidationError(f"must be at most {MAX_ORDER}, got {value!r}", field)
    return order


def _object(raw, field: str, keys) -> dict:
    """`raw` as a JSON object whose keys are all among `keys`."""
    if not isinstance(raw, dict):
        raise ValidationError("must be an object", field)
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValidationError(f"unknown keys {unknown}; accepted keys are {list(keys)}", field)
    return raw


def _list(raw, field: str, parse, nonempty: bool = False) -> list:
    if not isinstance(raw, list):
        raise ValidationError(f"expected a list, got {type(raw).__name__}", field)
    if nonempty and not raw:
        raise ValidationError("must be a non-empty list", field)
    return [parse(x, f"{field}[{k}]") for k, x in enumerate(raw)]


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"expected a string, got {type(value).__name__}", field)
    return value


def _choice(value, options, field: str):
    if value not in options:
        raise ValidationError(f"unknown value {value!r}; pick one of {options}", field)
    return value


def _load_scenario(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario: {exc}", str(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            str(path),
        )


def _parse_packet(raw) -> PacketMoments:
    raw = _object(raw, "packet", ("Q", "P", "dQ", "dP", "hbar"))
    missing = [k for k in ("Q", "P", "dQ", "dP") if k not in raw]
    if missing:
        raise ValidationError(f"missing fields {missing}", "packet")
    values = {k: _number(raw[k], f"packet.{k}") for k in ("Q", "P", "dQ", "dP")}
    hbar = _number(raw["hbar"], "packet.hbar") if "hbar" in raw else None
    try:
        return PacketMoments(hbar=hbar, **values)
    except DomainError as exc:
        raise ValidationError(str(exc), "packet")


def _parse_potential(raw) -> PolynomialPotential:
    raw = _object(raw, "potential", ("m", "V"))
    if "m" not in raw or "V" not in raw:
        raise ValidationError("needs fields m and V", "potential")
    mass = _number(raw["m"], "potential.m")
    coeffs = tuple(_list(raw["V"], "potential.V", _number, nonempty=True))
    try:
        return PolynomialPotential(mass, coeffs)
    except DomainError as exc:
        raise ValidationError(str(exc), "potential")


def _parse_grid(raw, field: str) -> List[float]:
    if raw is None:
        return []
    if isinstance(raw, list):
        if len(raw) > MAX_GRID_POINTS:
            raise ValidationError(f"grid has more than {MAX_GRID_POINTS} points", field)
        times = _list(raw, field, lambda t, f: float(_number(t, f)))
    elif isinstance(raw, dict):
        _object(raw, field, ("start", "stop", "step", "times"))
        if "times" in raw:
            if len(raw) > 1:
                raise ValidationError("times excludes start, stop and step", field)
            return _parse_grid(raw["times"], field)
        try:
            start = float(_number(raw.get("start", 0), field))
            stop = float(_number(raw["stop"], field))
            step = float(_number(raw["step"], field))
        except KeyError as exc:
            raise ValidationError(f"grid needs {exc.args[0]}", field)
        if step <= 0:
            raise ValidationError("grid step must be positive", field)
        span = (stop - start) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ValidationError(f"grid has more than {MAX_GRID_POINTS} points", field)
        n = int(math.floor(span)) + 1
        if n < 1:
            raise ValidationError(f"grid from {start} to {stop} has no points", field)
        times = [start + i * step for i in range(n)]
    else:
        raise ValidationError("grid must be a list or {start, stop, step}", field)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("grid times must be strictly increasing", field)
    return times


class Scenario:
    """One run, validated in a single pass over the scenario object (with
    any command-line flags already merged in): every field is parsed and
    checked here, and a malformed one raises ValidationError."""

    def __init__(self, raw):
        raw = _object(raw, "scenario", ("packet", "potential", "run", "output"))
        self.packet = _parse_packet(raw.get("packet", {}))
        self.potential = _parse_potential(raw.get("potential", {"m": 1, "V": [0]}))
        run = _object(raw.get("run", {}), "run", RUN_KEYS)
        self.mode = _choice(run.get("mode", "moments"), MODES, "run.mode")
        self.kind = _choice(run.get("kind", "classical"), ("classical", "quantum"), "run.kind")
        self.grid = _parse_grid(run.get("grid"), "run.grid")
        self.order = _order(run.get("order", 4), "run.order")
        # an absent list means the defaults; a given one must not be empty
        self.orders = (_list(run["orders"], "run.orders", _order, nonempty=True)
                       if "orders" in run else [])
        self.propagation = _choice(run.get("propagation"), PROPAGATIONS, "run.propagation")
        self.nu_sweep = _list(run.get("nu_sweep", []), "run.nu_sweep",
                              lambda x, f: float(_number(x, f)))
        self.cutoff = None if run.get("cutoff") is None else _integer(run["cutoff"], "run.cutoff")
        self.expressions = _list(run.get("expressions", list(_DEFAULT_EXPRESSIONS)),
                                 "run.expressions", _string, nonempty=True)
        self.volume = None if run.get("v") is None else float(_number(run["v"], "run.v"))
        out = _object(raw.get("output", {}), "output", ("dir", "formats"))
        self.out_dir = _string(out.get("dir", "out"), "output.dir")
        self.formats = _list(out.get("formats", list(FORMATS)), "output.formats",
                             lambda x, f: _choice(x, FORMATS, f))

        if self.mode in ("moments", "limit-sweep", "oracle-check") or self.kind == "quantum":
            self.packet.require_quantum()  # cites the uncertainty bound on failure
        if self.mode == "evolve":
            if self.propagation is None:
                self.propagation = ("quadratic" if self.potential.effective_degree() <= 2
                                    else "taylor-origin")
            if self.propagation != "quadratic" and self.order < 2:
                raise ValidationError(
                    f"Taylor propagation ({self.propagation}) needs order >= 2, got {self.order}",
                    "run.order",
                )
        if self.mode == "limit-sweep":
            if not self.nu_sweep:
                raise ValidationError("limit-sweep needs run.nu_sweep", "run.nu_sweep")
            bad = [x for x in self.nu_sweep if x <= 1]
            if bad:
                raise ValidationError(
                    f"nu values {bad} violate the uncertainty bound nu = 2*dQ*dP/hbar > 1",
                    "run.nu_sweep",
                )


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def format_nu_polynomial(expr: Expr) -> str:
    """Render an expression grouped by powers of nu, e.g. `21 - 2/nu^2`."""
    groups = expr.as_poly_in("nu")
    parts = []
    for e in sorted(groups, reverse=True):
        cs = format_expression(groups[e])
        if len(groups[e].terms()) > 1:
            cs = f"({cs})"
        if e == 0:
            parts.append(cs)
            continue
        power = ("nu" if e == 1 else f"nu^{e}") if e > 0 else ("/nu" if e == -1 else f"/nu^{-e}")
        if e > 0:
            if cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append(f"-{power}")
            else:
                parts.append(f"{cs}*{power}")
        else:
            parts.append(f"{cs}{power}")
    return _join_terms(parts)


class OutputBundle:
    """Collects data artifacts plus a human-readable report with footer."""

    def __init__(self, out_dir: Path, formats: List[str]):
        self.out_dir = out_dir
        self.formats = formats
        self.lines: List[str] = []
        self.files: Dict[str, str] = {}
        self.footer: Dict[str, str] = {}
        # raised by `main` once the outputs are written
        self.failure: Optional[MepackError] = None

    def say(self, text: str = ""):
        self.lines.append(text)

    def add_csv(self, name: str, columns: Sequence[str], rows: List[List]):
        body = "\n".join(
            [",".join(columns)]
            + [",".join(x if isinstance(x, str) else _fmt(x) for x in row) for row in rows]
        )
        self.files[name] = body + "\n"

    def write(self, payload: Dict) -> List[Path]:
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            written = []
            for name, content in self.files.items():
                if name.rsplit(".", 1)[-1] not in self.formats:
                    continue
                path = self.out_dir / name
                path.write_text(content)
                written.append(path)
            if "json" in self.formats:
                path = self.out_dir / "results.json"
                path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                written.append(path)
            if "txt" in self.formats:
                report = "\n".join(self.lines + ["", "---"] +
                                   [f"{k}: {v}" for k, v in self.footer.items()]) + "\n"
                path = self.out_dir / "report.txt"
                path.write_text(report)
                written.append(path)
            return written
        except OSError as exc:
            raise IOError(f"cannot write outputs under {self.out_dir}: {exc}") from exc


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _parse_operators(scenario: Scenario, bindings: dict) -> list:
    """Parse every expression before any work; each is at most of degree
    `MAX_EXPRESSION_DEGREE`, and every coefficient symbol must have a value
    in `bindings`."""
    operators = []
    for i, text in enumerate(scenario.expressions):
        try:
            op = parse_weyl(text)
        except ParseError as exc:
            raise ValidationError(str(exc), f"expression {text!r}")
        if op.degree() > MAX_EXPRESSION_DEGREE:
            raise ValidationError(
                f"degree must be at most {MAX_EXPRESSION_DEGREE}, got {op.degree()}",
                f"run.expressions[{i}]",
            )
        unbound = set().union(*(c.symbols() for _, c in op.terms())) - bindings.keys()
        if unbound:
            raise ValidationError(
                f"symbol {min(unbound)!r} has no value for a numeric packet",
                f"expression {text!r}",
            )
        operators.append(op)
    return operators


def run_moments(scenario: Scenario, out: OutputBundle):
    bindings = scenario.packet.bindings()
    sym = PacketMoments.symbolic()
    columns = ("expr", "classical", "quantum", "classical_value", "quantum_value_re",
               "quantum_value_im")
    rows = []
    operators = _parse_operators(scenario, bindings)
    out.say("expectation values of operator polynomials")
    out.say("")
    for i, (text, op) in enumerate(zip(scenario.expressions, operators)):
        quantum = expectation_quantum(sym, op)
        classical = moment_classical(sym, op.classical().map_coefficients(
            lambda c: c.drop_symbol("hbar")))
        quantum_str = format_expression(restore_hbar(quantum))
        classical_str = format_expression(classical)
        out.say(f"  <{text}>")
        out.say(f"    classical: {classical_str}")
        out.say(f"    quantum:   {quantum_str}")
        # exact at the packet's values, then rounded once
        with _in_float_range(f"run.expressions[{i}]", f"the value of {text!r}"):
            qv = scenario.packet.specialize(quantum).evaluate(bindings)
            cv = scenario.packet.specialize(classical).evaluate(bindings)
        out.say(f"    numeric:   classical {_fmt(cv.real)}, quantum "
                f"{_fmt(qv.real)} + {_fmt(qv.imag)}*i")
        rows.append([text, classical_str, quantum_str, cv.real, qv.real, qv.imag])
    out.add_csv("moments.csv", columns, rows)
    out.footer["provenance"] = "symbolic-exact"
    return {"rows": [dict(zip(columns, row)) for row in rows]}


def _trajectory(scenario: Scenario) -> Trajectory:
    if scenario.propagation == "quadratic":
        return trajectory_quadratic(
            scenario.packet, scenario.potential, scenario.grid,
            kind=scenario.kind, v=scenario.volume,
        )
    return propagate(
        scenario.packet, scenario.potential, scenario.grid,
        order=scenario.order, mode=scenario.propagation,
        kind=scenario.kind, v=scenario.volume,
    )


def run_evolve(scenario: Scenario, out: OutputBundle):
    traj = _trajectory(scenario)
    rows = list(traj.rows())
    out.add_csv("trajectory.csv", TRAJECTORY_COLUMNS, rows)
    out.say(f"evolved {len(rows)} grid points ({traj.provenance}, {traj.kind} packet)")
    if traj.remainder_estimate:
        out.say(f"last Taylor term magnitude (remainder proxy): {_fmt(traj.remainder_estimate)}")
    out.footer["provenance"] = traj.provenance
    return {"columns": TRAJECTORY_COLUMNS, "rows": rows}


def run_derivatives(scenario: Scenario, out: OutputBundle):
    order = scenario.order
    potential = scenario.potential
    label = "numeric" if potential.is_numeric else "symbolic"
    ct = derivatives_classical(potential, order)
    qt = derivatives_quantum(potential, order)
    columns = ("classical_p", "quantum_p", "classical_averaged_p", "quantum_averaged_p")
    rows = []
    out.say(f"time derivatives at t = 0 ({label} potential, degree {potential.degree})")
    for n, (cp, qp) in enumerate(zip(ct.p, qt.p), 1):
        quantum, classical = averaged_p_derivatives(potential, n)
        row = (format_phase(cp), format_weyl(qp), format_expression(classical),
               format_expression(quantum))
        rows.append(row)
        out.say("")
        out.say(f"  d^{n}p/dt^{n} classical: {row[0]}")
        out.say(f"  d^{n}p/dt^{n} quantum:   {row[1]}")
        out.say(f"  d^{n}P/dt^{n} classical average: {row[2]}")
        out.say(f"  d^{n}P/dt^{n} quantum average:   {format_nu_polynomial(quantum)}")
    out.footer["provenance"] = "symbolic-exact"
    return {"order": order, **dict(zip(columns, zip(*rows)))}


def run_corrections(scenario: Scenario, out: OutputBundle):
    degree = scenario.potential.degree
    potential = PolynomialPotential.symbolic(degree)
    orders = scenario.orders or list(range(1, scenario.order + 1))
    out.say(f"quantum corrections to d^n P/dt^n (symbolic potential of degree {degree})")
    rows = []
    for n in orders:
        quantum, classical = averaged_p_derivatives(potential, n)
        rendered = format_nu_polynomial(quantum - classical)
        out.say(f"  order {n}: {rendered}")
        rows.append({"order": n, "correction": rendered})
        if n == 5 and degree >= 4:
            group = quantum
            for name, power in (("V3", 1), ("V4", 1), ("dQ", 2), ("dP", 2), ("Q", 0), ("P", 0)):
                group = group.coefficient_of(name, power)
            factor = format_nu_polynomial(group * Expr.number(2) * Expr.symbol("m") ** 3)
            out.say(f"  pq2p-descended factor at order 5: dQ^2*dP^2*({factor})")
            rows[-1]["pq2p_factor"] = factor
    out.footer["provenance"] = "symbolic-exact"
    return {"rows": rows}


def run_limit_sweep(scenario: Scenario, out: OutputBundle):
    degree = scenario.potential.degree
    corr = quantum_correction(PolynomialPotential.symbolic(degree), scenario.order)
    base = scenario.packet.bindings()
    base["m"] = scenario.potential.mass_value()
    for k in range(degree + 1):
        base[f"V{k}"] = scenario.potential.coefficient(k)
    columns = ("nu", "correction", "moment_dev")
    rows = []
    for i, nu in enumerate(scenario.nu_sweep):
        b = dict(base, nu=nu, hbar=2.0 * base["dQ"] * base["dP"] / nu)
        with _in_float_range(f"run.nu_sweep[{i}]", f"a value at nu = {float(nu):g}"):
            rows.append([nu, abs(corr.evaluate(b)),
                         2.0 * base["dQ"] ** 2 * base["dP"] ** 2 / nu ** 2])
    out.add_csv("sweep.csv", columns, rows)

    def slope(idx: int) -> Optional[float]:
        pts = [(math.log(r[0]), math.log(r[idx])) for r in rows if r[idx] > 0]
        if len(pts) < 2:
            return None
        import numpy as np

        xs, ys = zip(*pts)
        return float(np.polyfit(xs, ys, 1)[0])

    s_corr, s_mom = slope(1), slope(2)
    out.say(f"swept nu over {scenario.nu_sweep} at derivative order {scenario.order}")
    out.say(f"fitted log-log slope of |correction|: {s_corr if s_corr is not None else 'n/a'}")
    out.say(f"fitted log-log slope of moment deviation: {s_mom if s_mom is not None else 'n/a'}")
    out.footer["provenance"] = "symbolic-evaluated"
    return {"columns": columns, "rows": rows, "correction_slope": s_corr, "moment_slope": s_mom}


# the largest |engine - oracle| / max(|oracle|, 1) that oracle-check accepts
ORACLE_CHECK_BOUND = 1e-8


def run_oracle_check(scenario: Scenario, out: OutputBundle):
    packet = scenario.packet
    bindings = packet.bindings()
    operators = list(zip(scenario.expressions, _parse_operators(scenario, bindings)))
    degree = max(op.degree() for _, op in operators)
    state = fock_state(packet, degree=degree, cutoff=scenario.cutoff)
    sym = PacketMoments.symbolic()
    out.say(f"fock oracle comparison at cutoff {state.cutoff} "
            f"(trace deficit {_fmt(state.trace_deficit)})")
    rows, scaled_deltas = [], []
    for i, (text, op) in enumerate(operators):
        with _in_float_range(f"run.expressions[{i}]", f"the value of {text!r}"):
            engine = expectation_quantum(sym, op).evaluate(bindings)
            oracle = fock_expectation(state, op)
        delta = abs(engine - oracle)
        rel = delta / max(abs(oracle), 1e-300)
        out.say(f"  <{text}>: engine {engine:.12g}, oracle {oracle:.12g}, rel delta {rel:.3e}")
        scaled_deltas.append(delta / max(abs(oracle), 1.0))
        rows.append([text, engine.real, engine.imag, oracle.real, oracle.imag, delta, rel])
    out.add_csv("oracle.csv", ("expr", "engine_re", "engine_im", "oracle_re", "oracle_im",
                               "abs_delta", "rel_delta"), rows)
    # a nan is the worst: max() alone keeps one only when it comes first
    worst = max((row[-1] for row in rows), key=lambda d: (math.isnan(d), d))
    out.say(f"worst relative delta: {worst:.3e}")
    scaled = max(scaled_deltas, key=lambda d: (math.isnan(d), d))
    out.footer["oracle_delta"] = f"{scaled:.3e} (bound {ORACLE_CHECK_BOUND:g})"
    if not scaled <= ORACLE_CHECK_BOUND:  # a nan delta fails too
        out.failure = CutoffError(
            f"engine and Fock oracle differ by {scaled:.3e} (|delta| / max(|oracle|, 1)), "
            f"above the bound {ORACLE_CHECK_BOUND:g}"
        )
    classical_rows = []
    for a, b in ((1, 0), (0, 1), (2, 0), (0, 2), (2, 2), (4, 2)):
        monomial = PhasePolynomial({(a, b): Expr.number(1)})
        engine = moment_classical(packet, monomial).evaluate(bindings).real
        quad = gaussian_moment_numeric(packet, a, b)
        classical_rows.append([a, b, engine, quad, abs(engine - quad)])
    out.add_csv("classical_moments.csv", ("a", "b", "engine", "quadrature", "abs_delta"),
                classical_rows)
    out.footer["provenance"] = "fock-oracle"
    out.footer["cutoff"] = str(state.cutoff)
    return {"cutoff": state.cutoff, "worst_rel_delta": worst, "rows": rows}


_RUNNERS = {
    "moments": run_moments,
    "evolve": run_evolve,
    "derivatives": run_derivatives,
    "corrections": run_corrections,
    "limit-sweep": run_limit_sweep,
    "oracle-check": run_oracle_check,
}
MODES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mepack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mepack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", type=Path)
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument("--mode", choices=MODES, default=None)
    run.add_argument("--expr", action="append", default=None,
                     help="operator expression, e.g. \"q*p\" (repeatable)")
    run.add_argument("--nu", default=None, help="comma-separated nu sweep list")
    run.add_argument("--order", type=int, default=None, help="Taylor/derivative order")
    run.add_argument("--cutoff", type=int, default=None, help="Fock cutoff override")
    return parser


def _with_flags(raw, args):
    """The scenario object with each given flag in place of its `run` or
    `output` value, so that Scenario checks flags and file alike."""
    flags = {
        "run": {"mode": args.mode, "expressions": args.expr, "order": args.order,
                "cutoff": args.cutoff,
                "nu_sweep": [x for x in args.nu.split(",") if x] if args.nu else None},
        "output": {"dir": args.out and str(args.out)},
    }
    for section, values in flags.items():
        given = {k: v for k, v in values.items() if v is not None}
        if given and isinstance(raw, dict) and isinstance(raw.get(section, {}), dict):
            raw = {**raw, section: {**raw.get(section, {}), **given}}
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = Scenario(_with_flags(_load_scenario(args.scenario), args))
        out = OutputBundle(Path(scenario.out_dir), scenario.formats)
        out.footer.update(
            mode=scenario.mode,
            kind=scenario.kind,
            order=str(scenario.order),
            scenario=str(args.scenario),
            package=f"mepack {__version__}",
        )
        payload = {"mode": scenario.mode, **_RUNNERS[scenario.mode](scenario, out)}
        out.footer.setdefault("cutoff", "n/a")
        written = out.write(payload)
        if out.failure is not None:
            raise out.failure
    except (ValidationError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (CutoffError, HorizonError, OverflowError) as exc:
        print(f"numeric range error: {exc}", file=sys.stderr)
        return 3
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
