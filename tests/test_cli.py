"""The mepack batch front end."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mepack.algebra import format_expression, parse_expression
from mepack.algebra.parsing import MAX_EXPRESSION_DEGREE, MAX_POWER_TERMS, MAX_PRODUCT_TERMS
from mepack.cli import (
    MAX_GRID_POINTS,
    MAX_ORDER,
    MAX_POTENTIAL_DEGREE,
    MODES,
    PROPAGATIONS,
    format_nu_polynomial,
    main,
)

# an override value that removes its key from the base scenario
DROP = object()


def write_scenario(tmp_path, name="scenario.json", **overrides):
    base = {
        "packet": {"Q": 0, "P": 0, "dQ": 1, "dP": 1, "hbar": 1},
        "potential": {"m": 1, "V": [0, 0, 0]},
        "run": {"mode": "evolve", "grid": {"start": 0, "stop": 1, "step": 0.25}},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key].update(value)
        else:
            base[key] = value
    for section in base.values():
        if isinstance(section, dict):
            for key in [k for k, v in section.items() if v is DROP]:
                del section[key]
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_evolve_free_particle(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "t,Q,P,dQ,dP,nu,S"
    last = lines[-1].split(",")
    assert last[0] == "1.0"
    assert last[3].startswith("1.4142135")
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "mode: evolve" in report
    assert "provenance: quadratic-exact" in report


def test_empty_grid_gives_header_only(tmp_path):
    path = write_scenario(tmp_path, run={"mode": "evolve", "grid": []})
    assert main(["run", str(path)]) == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_text()
    assert csv == "t,Q,P,dQ,dP,nu,S\n"


def test_determinism_byte_identical(tmp_path):
    path = write_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("trajectory.csv", "results.json", "report.txt")
    }
    assert main(["run", str(path)]) == 0
    for name, content in first.items():
        assert (tmp_path / "out" / name).read_bytes() == content


def test_moments_mode_prints_qp_form(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 1},
        run={"mode": "moments", "expressions": ["q*p"], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "Q*P + (1/2)*i*hbar" in report
    # printed expressions re-parse to equal canonical forms
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    for row in payload["rows"]:
        reparsed = parse_expression(row["quantum"])
        assert format_expression(reparsed) == row["quantum"]


def test_corrections_mode_contains_factor(tmp_path):
    path = write_scenario(
        tmp_path,
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
        run={"mode": "corrections", "order": 5, "grid": None},
    )
    assert main(["run", str(path)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "21 - 2/nu^2" in report


def test_limit_sweep_slope(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 0.1},
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
        run={"mode": "limit-sweep", "order": 5, "nu_sweep": [10, 20, 40], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["correction_slope"] == pytest.approx(-2.0, abs=0.01)
    csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv[0] == "nu,correction,moment_dev"
    assert len(csv) == 4


def test_limit_sweep_over_a_single_nu_fits_no_slope(tmp_path):
    path = write_scenario(tmp_path, potential={"m": 1, "V": [0, 0, 0, 1, 1]},
                          run={"mode": "limit-sweep", "order": 3, "nu_sweep": [2, "2"],
                               "grid": None})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["correction_slope"] is None and payload["moment_slope"] is None


def test_oracle_check_mode(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 1},
        run={"mode": "oracle-check", "expressions": ["q*p", "p*q^2*p"], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["worst_rel_delta"] < 1e-8


def test_derivatives_mode(tmp_path):
    path = write_scenario(
        tmp_path,
        run={"mode": "derivatives", "order": 2, "grid": None},
        potential={"m": 1, "V": [0, 0, 0, "1/2", "1/3"]},
    )
    assert main(["run", str(path)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "d^1p/dt^1" in report and "quantum average" in report


def test_derivatives_mode_reads_averages_from_the_chain_store(tmp_path, monkeypatch):
    # the averaged lines come from the Moyal symbols, not the operator engine
    from mepack import cli, dynamics, quantum

    def refuse(*_):
        raise AssertionError("operator moment engine in derivatives mode")

    for module in (cli, dynamics, quantum):
        monkeypatch.setattr(module, "expectation_quantum", refuse)
    path = write_scenario(
        tmp_path,
        run={"mode": "derivatives", "order": 5, "grid": None},
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
    )
    assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert len(payload["quantum_averaged_p"]) == 5


def test_derivatives_mode_runs_the_shadow_check(tmp_path, monkeypatch):
    from mepack import dynamics
    from mepack.algebra import Expr, PhasePolynomial

    moyal_step = dynamics._moyal_step
    nudge = PhasePolynomial.q().map_coefficients(lambda c: c * Expr.number(3))
    # the chain store is keyed by the potential alone: the patched step
    # walks from an empty store and leaves none of its chains behind
    dynamics._chains.cache_clear()
    monkeypatch.setattr(dynamics, "_moyal_step", lambda h: (lambda x: moyal_step(h)(x) + nudge))
    path = write_scenario(
        tmp_path,
        run={"mode": "derivatives", "order": 2, "grid": None},
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
    )
    try:
        with pytest.raises(AssertionError, match="Poisson chain"):
            main(["run", str(path)])
    finally:
        dynamics._chains.cache_clear()


def test_moments_far_from_the_origin_round_once(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 1e6, "P": 0, "dQ": 1, "dP": 1, "hbar": 1},
        run={"mode": "moments", "grid": None},
    )
    assert main(["run", str(path), "--expr", "(q-1000000)^4"]) == 0
    row = json.loads((tmp_path / "out" / "results.json").read_text())["rows"][0]
    assert (row["classical_value"], row["quantum_value_re"]) == (3.0, 3.0)
    csv = (tmp_path / "out" / "moments.csv").read_text().splitlines()
    assert csv[1].split(",")[-3:-1] == ["3.0", "3.0"]


def test_exact_rational_strings_accepted(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": "1/2", "P": 0, "dQ": "3/2", "dP": 1, "hbar": 1},
    )
    assert main(["run", str(path)]) == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv[1].split(",")[1] == "0.5"


def test_validation_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err

    path = write_scenario(tmp_path, run={"mode": "no-such-mode", "grid": None})
    assert main(["run", str(path)]) == 2
    assert "mode" in capsys.readouterr().err

    path = write_scenario(tmp_path, packet={"Q": 0, "P": 0, "dQ": -1, "dP": 1})
    assert main(["run", str(path)]) == 2
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2


@pytest.mark.parametrize("expr", ["q/0", "q/(V1+V2)", "q/(1-1)", "q*p^-1"])
def test_bad_divisor_is_a_validation_error(tmp_path, capsys, expr):
    path = write_scenario(tmp_path, run={"mode": "moments", "grid": None})
    assert main(["run", str(path), "--expr", expr]) == 2
    assert "validation error" in capsys.readouterr().err


SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@pytest.mark.parametrize(
    "scenario, expr, symbol",
    [
        ("moments.json", "V7*q", "V7"),
        ("moments.json", "t*q", "t"),
        ("moments.json", "lam1*q", "lam1"),
        ("oracle_check.json", "m*q", "m"),
    ],
)
def test_unbound_symbol_on_numeric_packet_is_a_validation_error(
    tmp_path, capsys, scenario, expr, symbol
):
    args = ["run", str(SCENARIOS / scenario), "--out", str(tmp_path / "out"), "--expr", expr]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and repr(symbol) in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", "x"),
        ("orders", ["a"]),
        ("orders", 3),
        ("cutoff", "big"),
        ("order", None),
        ("order", 2.7),
        ("cutoff", "5/2"),
    ],
)
def test_integer_run_fields_are_validated(tmp_path, capsys, field, value):
    path = write_scenario(tmp_path, run={field: value})
    assert main(["run", str(path)]) == 2
    assert f"run.{field}" in capsys.readouterr().err


def test_integer_run_fields_accept_integral_values(tmp_path):
    path = write_scenario(
        tmp_path,
        run={"mode": "oracle-check", "order": 4.0, "orders": ["2"], "cutoff": "60",
             "grid": None},
    )
    assert main(["run", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "results.json").read_text())["cutoff"] == 60


@pytest.mark.parametrize(
    "overrides, flags, message",
    [
        ({"run": {"expressions": 5}}, [], "run.expressions: expected a list"),
        ({"run": {"expressions": [5]}}, [], "run.expressions[0]: expected a string"),
        ({"run": {"expressions": "q*p"}}, [], "run.expressions: expected a list"),
        ({"run": {"nu_sweep": 5}}, [], "run.nu_sweep: expected a list"),
        ({"output": {"dir": 5}}, [], "output.dir: expected a string"),
        ({"output": {"formats": 5}}, [], "output.formats: expected a list"),
        ({"output": {"formats": "csv"}}, [], "output.formats: expected a list"),
        ({"oder": 4}, [], "scenario: unknown keys ['oder']"),
        ({"run": {"oder": 4}}, [], "run: unknown keys ['oder']"),
        ({"output": {"formts": ["csv"]}}, [], "output: unknown keys ['formts']"),
        ({"run": {"grid": {"start": 1, "stop": 0, "step": 0.25}}}, [], "run.grid: grid from"),
        ({"run": {"grid": {"times": [0, 1], "stop": 5}}}, [], "run.grid: times excludes"),
        ({"run": {"mode": "derivatives", "order": 0}}, [], "run.order: must be at least 1"),
        ({"run": {"mode": "limit-sweep", "order": 0, "nu_sweep": [10, 20]}}, [],
         "run.order: must be at least 1"),
        ({"run": {"mode": "corrections", "orders": [0]}}, [],
         "run.orders[0]: must be at least 1"),
        ({"run": {"mode": "derivatives"}}, ["--order", "0"], "run.order: must be at least 1"),
        ({"run": {"mode": "moments", "expressions": []}}, [],
         "run.expressions: must be a non-empty list"),
        ({"run": {"mode": "corrections", "orders": []}}, [], "run.orders: must be a non-empty list"),
        ({"run": {"propagation": "taylor-origin", "order": 1}}, [],
         "run.order: Taylor propagation (taylor-origin) needs order >= 2, got 1"),
        ({"run": {"propagation": "repacketized-stepping", "order": 1}}, [],
         "run.order: Taylor propagation (repacketized-stepping) needs order >= 2, got 1"),
        ({"potential": {"m": 1, "V": [0, 0, 1, 0, 1]}, "run": {"order": 1}}, [],
         "run.order: Taylor propagation (taylor-origin) needs order >= 2, got 1"),
        ({"potential": {"m": 1, "V": [0, 0, 1, 0, 1]}}, ["--order", "1"],
         "run.order: Taylor propagation (taylor-origin) needs order >= 2, got 1"),
        ({"potential": {"m": 1, "V": [0, float("inf")]}}, [],
         "potential.V[1]: expected a finite number, got inf"),
        ({"packet": {"Q": 0, "P": float("nan"), "dQ": 1, "dP": 1}}, [],
         "packet.P: expected a finite number, got nan"),
        ({"packet": {"Q": True}}, [], "packet.Q: expected a number"),
        ({"run": []}, [], "run: must be an object"),
        ({"packet": {"P": DROP, "dQ": DROP, "dP": DROP}}, [],
         "packet: missing fields ['P', 'dQ', 'dP']"),
        ({"potential": {"V": DROP}}, [], "potential: needs fields m and V"),
        ({"potential": {"m": -1}}, [], "potential: mass must be positive, got -1"),
        ({"run": {"grid": {"start": 0, "step": 0.25}}}, [], "run.grid: grid needs stop"),
        ({"run": {"grid": {"start": 0, "stop": 1, "step": 0}}}, [],
         "run.grid: grid step must be positive"),
        ({"run": {"grid": 5}}, [], "run.grid: grid must be a list or {start, stop, step}"),
        ({"run": {"grid": [0, 1, 1]}}, [], "run.grid: grid times must be strictly increasing"),
        ({"run": {"mode": "limit-sweep"}}, [], "run.nu_sweep: limit-sweep needs run.nu_sweep"),
    ],
    ids=[
        "expressions-int", "expressions-int-entry", "expressions-string", "nu_sweep-int",
        "dir-int", "formats-int", "formats-string", "top-level-typo", "run-typo",
        "output-typo", "grid-start-after-stop", "grid-times-and-stop", "derivatives-order-0",
        "limit-sweep-order-0", "orders-entry-0", "order-flag-0", "expressions-empty",
        "orders-empty", "taylor-origin-order-1", "repacketized-order-1",
        "default-taylor-order-1", "taylor-order-flag-1", "potential-inf",
        "packet-nan", "packet-bool", "run-list", "packet-missing-fields",
        "potential-missing-V", "mass-negative", "grid-without-stop", "grid-step-0",
        "grid-number", "grid-repeated-time", "limit-sweep-without-nu_sweep",
    ],
)
def test_malformed_scenario_is_a_validation_error(tmp_path, capsys, overrides, flags, message):
    path = write_scenario(tmp_path, **overrides)
    assert main(["run", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err
    assert "Traceback" not in err


_QUARTIC = {"m": 1, "V": [0, 0, 0, 0, 1]}
_HUGE_QUARTIC = {"m": 1, "V": [0, 0, 0, 0, "1e400"]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"run": {"grid": ["0", "1e400"]}}, "run.grid[1]: 1e400 is beyond float range"),
        ({"run": {"mode": "limit-sweep", "nu_sweep": ["1e400"], "grid": None}},
         "run.nu_sweep[0]: 1e400 is beyond float range"),
        ({"packet": {"Q": "1e400"}, "potential": _QUARTIC,
          "run": {"kind": "quantum", "grid": [0, 0.1]}},
         "packet.Q: 1e400 is beyond float range"),
        ({"packet": {"Q": 10 ** 400}}, "packet.Q: 1000"),
        ({"potential": _HUGE_QUARTIC,
          "run": {"mode": "limit-sweep", "nu_sweep": [10, 20], "grid": None}},
         "potential.V[4]: 1e400 is beyond float range"),
        ({"potential": _HUGE_QUARTIC,
          "run": {"kind": "quantum", "propagation": "taylor-origin", "grid": [0, 0.1]}},
         "potential.V[4]: 1e400 is beyond float range"),
        ({"packet": {"hbar": "1e-400"}}, "packet.hbar: 1e-400 is below float range"),
    ],
    ids=["grid", "nu_sweep", "packet-Q-evolve", "packet-Q-int", "V-limit-sweep",
         "V-taylor-origin", "hbar-underflow"],
)
def test_number_outside_float_range_is_a_validation_error(tmp_path, capsys, overrides, message):
    path = write_scenario(tmp_path, **overrides)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, code, message",
    [
        ({"run": {"mode": "limit-sweep", "nu_sweep": ["1e300", "1e301"], "grid": None}}, 3,
         "numeric range error: run.nu_sweep[0]: a value at nu = 1e+300 is beyond float range"),
        ({"potential": _QUARTIC, "run": {"propagation": "taylor-origin", "grid": [0, "1e300"]}},
         3, "numeric range error: Taylor series leaves float range at t = 1e+300\n"),
        ({"potential": {"m": 1, "V": [0, 0, 0, 0, "1e300"]},
          "run": {"kind": "quantum", "grid": [0, 0.1]}}, 3,
         "numeric range error: Taylor series leaves float range at t = 0.0\n"),
        ({"packet": {"Q": 0.5}, "run": {"mode": "moments", "expressions": ["(10^400)*q"],
                                        "grid": None}}, 3,
         "numeric range error: run.expressions[0]: the value of '(10^400)*q' is beyond float "
         "range"),
        ({"run": {"grid": {"start": 0, "stop": 1, "step": "1e-300"}}}, 2,
         f"validation error: run.grid: grid has more than {MAX_GRID_POINTS} points"),
        ({"run": {"grid": list(range(MAX_GRID_POINTS + 1))}}, 2,
         f"validation error: run.grid: grid has more than {MAX_GRID_POINTS} points"),
        ({"run": {"mode": "derivatives", "order": MAX_ORDER + 1, "grid": None}}, 2,
         f"validation error: run.order: must be at most {MAX_ORDER}, got {MAX_ORDER + 1}\n"),
        ({"run": {"mode": "corrections", "orders": [2, MAX_ORDER + 1], "grid": None}}, 2,
         f"validation error: run.orders[1]: must be at most {MAX_ORDER}, got {MAX_ORDER + 1}\n"),
        ({"run": {"mode": "moments", "grid": None,
                  "expressions": ["q", f"q^{MAX_EXPRESSION_DEGREE}*p"]}}, 2,
         f"validation error: run.expressions[1]: degree must be at most "
         f"{MAX_EXPRESSION_DEGREE}, got {MAX_EXPRESSION_DEGREE + 1}\n"),
        # the parser refuses the power before it forms it
        ({"run": {"mode": "moments", "grid": None, "expressions": ["(q+p)^64"]}}, 2,
         f"validation error: run.expressions[0]: degree must be at most "
         f"{MAX_EXPRESSION_DEGREE}, got 64\n"),
        # a power of a sum, of degree 1, is bounded by the terms it would form
        ({"run": {"mode": "moments", "grid": None, "expressions": ["(Q+P+dQ+dP)^28*q"]}}, 2,
         f"validation error: run.expressions[0]: a power of a sum may form at most "
         f"{MAX_POWER_TERMS} products, got 4495 (4 terms to the power 28)\n"),
        # powers that each pass their bound are not multiplied past the product's
        ({"run": {"mode": "moments", "grid": None,
                  "expressions": ["(V1+V2+V3+dQ)^16*(V1+V2+V3+dQ)^16*q"]}}, 2,
         f"validation error: run.expressions[0]: a product may form at most "
         f"{MAX_PRODUCT_TERMS} products of terms, got 938961 (969 terms times 969)\n"),
        ({"potential": {"m": 1, "V": [0] * (MAX_POTENTIAL_DEGREE + 2)},
          "run": {"mode": "corrections", "grid": None}}, 2,
         f"validation error: potential.V: degree must be at most {MAX_POTENTIAL_DEGREE}, "
         f"got {MAX_POTENTIAL_DEGREE + 1}\n"),
        # the Fock oracle's own sum overflows, with no numpy warning
        ({"packet": {"dQ": 2, "dP": 2}, "potential": {"m": 1, "V": [0]},
          "run": {"mode": "oracle-check", "expressions": ["(10^306)*q^4"], "grid": None}}, 3,
         "numeric range error: run.expressions[0]: the value of '(10^306)*q^4' is beyond float "
         "range\n"),
    ],
    ids=["nu_sweep-1e300", "taylor-grid-1e300", "quantum-V4-1e300", "moments-10^400",
         "grid-step-1e-300", "grid-list-too-long", "order-over-cap", "orders-entry-over-cap",
         "expression-degree-over-cap", "expression-power-over-cap", "scalar-power-over-bound",
         "scalar-product-over-bound",
         "potential-degree-over-cap",
         "oracle-check-10^306"],
)
def test_a_value_out_of_range_exits_without_a_traceback(tmp_path, capsys, overrides, code,
                                                         message):
    path = write_scenario(tmp_path, **overrides)
    assert main(["run", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err and "RuntimeWarning" not in err


# generated scenarios: numbers, lists and texts are drawn well below the caps,
# so that no draw can exhaust time or memory, and about one value in twenty
# is an odd one; limit-sweep fits its slopes and oracle-check traces with
# numpy, so without numpy only the four other modes are drawn
FUZZ_MODES = (MODES if importlib.util.find_spec("numpy") is not None
              else tuple(m for m in MODES if m not in ("limit-sweep", "oracle-check")))
_ODD = st.sampled_from([0, -1, "1/0", "x", "1e400", "1e-400", None, True, [1], {}])


def _sometimes_odd(strategy, odd=_ODD):
    # shrinks towards the usual values
    return st.integers(0, 19).flatmap(lambda k: odd if k == 19 else strategy)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


_NUMBERS = _sometimes_odd(st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "5/3"]),
                                    st.floats(-4, 4, allow_nan=False, width=32)))
_SPREADS = _sometimes_odd(st.sampled_from([1, 2, "1/2", "3/2", 0.8, "5/2"]))
# an operator or scalar factor, with a power of at most 2, and up to three of
# them in a product: texts of degree at most 6 and scalar powers of few terms
_FACTORS = st.tuples(
    _sometimes_odd(st.sampled_from(["q", "p", "Q", "P", "dQ", "dP", "hbar", "nu", "2", "i",
                                    "(q+p)", "(q-Q)", "(Q+P+1)", "(dQ*p+1)"]),
                   st.sampled_from(["x", "(q", "V1", "", "q/p"])),
    _sometimes_odd(st.sampled_from(["", "^2"]), st.sampled_from(["^0", "^-1", "^"])),
).map("".join)
_PRODUCTS = st.lists(_FACTORS, min_size=1, max_size=3).map("*".join)
_TEXTS = st.lists(st.tuples(st.sampled_from([" + ", " - ", "/"]), _PRODUCTS),
                  min_size=1, max_size=2).map(lambda parts: "".join(a + b for a, b in parts)[3:])
_TIMES = _sometimes_odd(st.one_of(
    st.lists(st.floats(0, 3, allow_nan=False, width=32), max_size=5, unique=True).map(sorted),
    st.fixed_dictionaries({"start": st.sampled_from([0, 0.5]), "stop": st.sampled_from([1, 2.5]),
                           "step": st.sampled_from([0.25, 0.5, 1])}),
), st.one_of(_ODD, st.just([1, 0]), st.just({"start": 0, "stop": "1e300", "step": 1}),
             st.just({"start": 0, "stop": 1, "step": "1e-300"})))


@st.composite
def scenarios(draw):
    packet = {"Q": draw(_NUMBERS), "P": draw(_NUMBERS), "dQ": draw(_SPREADS),
              "dP": draw(_SPREADS), "hbar": draw(_SPREADS)}
    potential = {"m": draw(_SPREADS), "V": draw(st.lists(_NUMBERS, min_size=1, max_size=5))}
    run = {
        "mode": draw(st.sampled_from(FUZZ_MODES)),
        "kind": draw(_optional(st.sampled_from(["classical", "quantum"]))),
        "grid": draw(_optional(_TIMES)),
        "order": draw(_optional(_sometimes_odd(st.integers(1, 4)))),
        "orders": draw(_optional(st.lists(_sometimes_odd(st.integers(1, 4)), max_size=3))),
        "propagation": draw(st.sampled_from(PROPAGATIONS)),
        "nu_sweep": draw(st.lists(_sometimes_odd(st.sampled_from([2, 10, 50, "3/2"])),
                                  max_size=4)),
        "cutoff": draw(_optional(st.integers(1, 200))),
        "expressions": draw(_optional(st.lists(_TEXTS, min_size=1, max_size=3))),
    }
    return {"packet": packet, "potential": potential,
            "run": {key: value for key, value in run.items() if value is not None}}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scenarios(), st.sampled_from(["out", "out/nested", "scenario.json/out"]))
# a sweep over one nu gave a slope and numpy's RankWarning
@example({"packet": {"Q": 0, "P": 0, "dQ": 1, "dP": 1, "hbar": 1},
          "potential": {"m": 1, "V": [0, 0, 0, 1]},
          "run": {"mode": "limit-sweep", "nu_sweep": [2, 2], "order": 3}}, "out")
# the zero operator: a trace over no word, so over no word band
@example({"packet": {"Q": 0, "P": 0, "dQ": 1, "dP": 1, "hbar": 1},
          "potential": {"m": 1, "V": [0]},
          "run": {"mode": "oracle-check", "expressions": ["q^2 - q^2"]}}, "out")
def test_any_scenario_exits_with_a_documented_code(scenario, out):
    assume(scenario["run"]["mode"] in FUZZ_MODES)  # the examples above need numpy
    # an output directory under the scenario file cannot be made: exit 4
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path), "--out", str(Path(tmp) / out)])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


def test_an_order_and_a_degree_at_their_caps_are_accepted(tmp_path):
    path = write_scenario(tmp_path, potential={"m": 1, "V": [0] * MAX_POTENTIAL_DEGREE + [1]},
                          run={"mode": "moments", "order": MAX_ORDER, "grid": None,
                               "orders": [MAX_ORDER],
                               "expressions": [f"q^{MAX_EXPRESSION_DEGREE}"]})
    assert main(["run", str(path)]) == 0


@pytest.mark.parametrize("expressions", [["(10^306)*q^4"], ["(10^307)*q^4"],
                                         ["q", "(10^306)*q^4"]])
def test_oracle_check_names_an_oracle_value_past_float_range(tmp_path, expressions):
    # a subprocess, so that a numpy warning would reach stderr as a user sees it
    path = write_scenario(tmp_path, packet={"dQ": 2, "dP": 2}, potential={"m": 1, "V": [0]},
                          run={"mode": "oracle-check", "expressions": expressions,
                               "grid": None})
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "mepack.cli", "run", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    i = len(expressions) - 1
    assert proc.stderr == (f"numeric range error: run.expressions[{i}]: the value of "
                           f"{expressions[i]!r} is beyond float range\n")


def test_absent_lists_mean_the_defaults(tmp_path):
    path = write_scenario(tmp_path, run={"mode": "moments", "grid": None})
    assert main(["run", str(path)]) == 0
    rows = json.loads((tmp_path / "out" / "results.json").read_text())["rows"]
    assert [r["expr"] for r in rows] == ["q", "p", "q^2", "p^2", "q*p", "p*q^2*p"]
    path = write_scenario(tmp_path, run={"mode": "corrections", "order": 3, "grid": None})
    assert main(["run", str(path)]) == 0
    rows = json.loads((tmp_path / "out" / "results.json").read_text())["rows"]
    assert [r["order"] for r in rows] == [1, 2, 3]


def test_quadratic_propagation_accepts_order_one(tmp_path):
    path = write_scenario(tmp_path, potential={"m": 1, "V": [0, 0, 1]},
                          run={"mode": "evolve", "order": 1})
    assert main(["run", str(path)]) == 0
    assert "provenance: quadratic-exact" in (tmp_path / "out" / "report.txt").read_text()


def test_limit_sweep_runs_the_order_it_is_given(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 0.1},
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
        run={"mode": "limit-sweep", "order": 1, "nu_sweep": [10, 20], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    assert "at derivative order 1\n" in (tmp_path / "out" / "report.txt").read_text()


def test_sub_minimal_quantum_packet_rejected_with_bound_message(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0, "P": 0, "dQ": 0.5, "dP": 0.5, "hbar": 1},
        run={"mode": "oracle-check", "grid": None},
    )
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "2*dQ*dP >= hbar" in err


def test_nu_sweep_below_bound_rejected(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        run={"mode": "limit-sweep", "nu_sweep": [0.5, 10], "grid": None},
    )
    assert main(["run", str(path)]) == 2
    assert "uncertainty bound" in capsys.readouterr().err


def test_cutoff_error_exit_3(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0, "P": 0, "dQ": 2.0, "dP": 2.0, "hbar": 1},
        run={"mode": "oracle-check", "cutoff": 4, "grid": None},
    )
    assert main(["run", str(path)]) == 3
    capsys.readouterr()


def test_quadratic_overflow_exits_3(tmp_path, capsys):
    path = write_scenario(
        tmp_path, potential={"m": 1, "V": [0, 0, -1]}, run={"mode": "evolve", "grid": [0, 400]}
    )
    assert main(["run", str(path)]) == 3
    assert "numeric range error: closed-form moments leave float range at t = 400.0" in (
        capsys.readouterr().err
    )


def test_oracle_disagreement_exits_3_after_writing(tmp_path, capsys):
    # far from the origin both float routes lose their digits: the exact
    # value is 3 dQ^4 = 4.39, engine and oracle are off by 1e8
    scenario = json.loads((SCENARIOS / "oracle_check.json").read_text())
    scenario["packet"]["Q"] = 1e6
    path = tmp_path / "far.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    argv = ["run", str(path), "--out", str(out), "--expr", "(q-1000000)^4"]
    assert main(argv) == 3
    assert "numeric range error" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "classical_moments.csv", "oracle.csv", "report.txt", "results.json"
    ]
    assert json.loads((out / "results.json").read_text())["worst_rel_delta"] > 1
    assert "oracle_delta: " in (out / "report.txt").read_text()


def test_io_error_exit_4(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    path = write_scenario(tmp_path, output={"dir": str(blocked)})
    assert main(["run", str(path)]) == 4
    capsys.readouterr()


def test_cli_flag_overrides(tmp_path):
    path = write_scenario(tmp_path, run={"mode": "evolve", "grid": None})
    out = tmp_path / "alt"
    assert main([
        "run", str(path), "--mode", "moments", "--expr", "q*p", "--out", str(out)
    ]) == 0
    assert (out / "report.txt").exists()
    payload = json.loads((out / "results.json").read_text())
    assert [row["expr"] for row in payload["rows"]] == ["q*p"]


def test_sweep_rows_follow_nu_sweep_order(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 0.1},
        potential={"m": 1, "V": [0, 0, 0, 1, 1]},
        run={"mode": "limit-sweep", "order": 5, "nu_sweep": [10, 20, 40], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [10.0, 20.0, 40.0]


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli"


def assert_matches_golden(out: Path, name: str):
    """Every data file, and report.txt up to its run-metadata footer, is
    byte-identical to the reference outputs the benchmark checks."""
    golden = GOLDEN / name
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for fname in expected:
        got, ref = (out / fname).read_bytes(), (golden / fname).read_bytes()
        if fname == "report.txt":
            got, ref = got.rpartition(b"\n---\n")[:2], ref.rpartition(b"\n---\n")[:2]
        assert got == ref, fname


@pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_scenario_outputs_match_golden(tmp_path, scenario):
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    assert_matches_golden(out, scenario.stem)


# the bundled scenarios that the exact engine runs alone
NUMPY_FREE = ("corrections", "derivatives", "free_particle", "harmonic_oscillator", "moments",
              "quartic_taylor")


def test_numpy_free_scenarios_match_golden_with_numpy_blocked(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; sys.modules['numpy'] = None; from mepack.cli import main; "
            "scenarios, out = sys.argv[1:3]; "
            "sys.exit(max(main(['run', f'{scenarios}/{name}.json', '--out', f'{out}/{name}']) "
            "for name in sys.argv[3:]))")
    argv = [sys.executable, "-c", code, str(SCENARIOS), str(tmp_path), *NUMPY_FREE]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in NUMPY_FREE:
        assert_matches_golden(tmp_path / name, name)


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mepack.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_numpy_to_the_oracle():
    # dataclasses would pull in inspect, ast, dis and tokenize at start-up
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, mepack, mepack.cli; "
            "[getattr(mepack, name) for name in mepack.__all__]; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_output_formats_filter(tmp_path):
    path = write_scenario(tmp_path, output={"dir": str(tmp_path / "out"), "formats": ["csv"]})
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert not (tmp_path / "out" / "results.json").exists()
    assert not (tmp_path / "out" / "report.txt").exists()
    only_json = write_scenario(tmp_path, name="json.json",
                               output={"dir": str(tmp_path / "out_json"), "formats": ["json"]})
    assert main(["run", str(only_json)]) == 0
    assert [p.name for p in (tmp_path / "out_json").iterdir()] == ["results.json"]
    bad = write_scenario(tmp_path, name="bad_fmt.json",
                         output={"dir": str(tmp_path / "out2"), "formats": ["xml"]})
    assert main(["run", str(bad)]) == 2


def test_times_grid_matches_the_plain_list(tmp_path):
    times = [0, 0.1, 0.35, 1]
    payloads = []
    for name, grid in (("list", times), ("times", {"times": times})):
        out = tmp_path / name
        path = write_scenario(tmp_path, name=f"{name}.json", output={"dir": str(out)},
                              potential={"m": 1, "V": [0, 0, 1, 0.2]},
                              run={"mode": "evolve", "grid": grid, "order": 3})
        assert main(["run", str(path)]) == 0
        payloads.append((out / "trajectory.csv").read_bytes())
    assert payloads[0] == payloads[1]
    assert len(payloads[0].splitlines()) == 1 + len(times)


def test_moments_csv_emitted(tmp_path):
    path = write_scenario(
        tmp_path,
        packet={"Q": 0.5, "P": -0.25, "dQ": 1.0, "dP": 1.5, "hbar": 1},
        run={"mode": "moments", "expressions": ["q*p"], "grid": None},
    )
    assert main(["run", str(path)]) == 0
    lines = (tmp_path / "out" / "moments.csv").read_text().splitlines()
    assert lines[0].startswith("expr,classical,quantum")
    assert lines[1].startswith("q*p,")


def test_format_nu_polynomial():
    assert format_nu_polynomial(parse_expression("21 - 2*nu^-2")) == "21 - 2/nu^2"
    assert format_nu_polynomial(parse_expression("0")) == "0"
    assert format_nu_polynomial(parse_expression("nu + 1")) == "nu + 1"
    assert format_nu_polynomial(parse_expression("-Q/nu")) == "-Q/nu"


@pytest.mark.parametrize("nu, text", [(1000, "q^8"), (50, "q^12"), (50, "q^6*p^6"),
                                      (50, "q^16")])
def test_oracle_check_keeps_the_dropped_moment_of_a_high_degree_word(tmp_path, nu, text):
    # a cutoff set by the dropped weight alone lost more than the bound of
    # the word's moment above it, whose diagonal grows with the level
    path = write_scenario(tmp_path, packet={"Q": 0.6, "P": -0.4, "dQ": 1.1, "dP": nu / 2.2},
                          potential={"m": 1, "V": [0]},
                          run={"mode": "oracle-check", "expressions": [text], "grid": None})
    assert main(["run", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["worst_rel_delta"] <= 1e-12
