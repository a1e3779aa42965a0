"""Workload definitions: seeded inputs, timed sections and output checks.

Each workload has three parts:

- ``make_inputs(seed, size)`` builds plain JSON-able data from the seed.
  It never imports mepack, so the worker can time the import itself.
- ``run(inputs, ctx)`` is the timed section.  It calls the library and
  returns its raw results.
- ``check(inputs, results, ctx)`` runs outside the timed section.  It
  compares rendered results byte for byte with the golden references in
  ``golden/`` and checks them against independent numeric oracles.  It
  returns a list of check records ``{"name", "ok", "detail"}``; a record
  may carry ``rel``, the relative engine/oracle distance.

``size`` is ``"full"`` for the measured benchmark and ``"small"`` for a
quick self-test run on a subset of the same golden references.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
SCENARIO_DIR = ROOT / "demos" / "scenarios"

# relative tolerance for engine-versus-oracle comparisons in double precision
REL_TOL = 1e-8

SIZES = {
    "full": {
        "moments": {"table_degree": 8, "words": {"10": 2, "12": 3, "14": 3}},
        "corrections": {"degrees": [3, 4, 5, 6], "orders": [1, 2, 3, 4, 5, 6]},
        "fock-evolve": {"cutoff": 400, "nu": 12, "words": 6, "max_word": 6, "order": 6},
        "cli-batch": {"scenarios": None},
    },
    "small": {
        "moments": {"table_degree": 4, "words": {"6": 2, "8": 2}},
        "corrections": {"degrees": [3, 4], "orders": [1, 2, 3, 4, 5]},
        "fock-evolve": {"cutoff": 150, "nu": 3, "words": 3, "max_word": 4, "order": 4},
        "cli-batch": {"scenarios": ["free_particle", "moments"]},
    },
}


def load_golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def _check(name: str, ok: bool, detail: str = "", rel=None) -> dict:
    record = {"name": name, "ok": bool(ok), "detail": detail}
    if rel is not None:
        record["rel"] = rel
    return record


def _close(name: str, engine: complex, oracle: complex, tol: float = REL_TOL) -> dict:
    """Relative distance, measured against max(|oracle|, 1)."""
    rel = abs(complex(engine) - complex(oracle)) / max(abs(complex(oracle)), 1.0)
    return _check(name, rel <= tol, f"engine {engine!r} oracle {oracle!r}", rel)


def _numeric_packet(rng: random.Random, nu_lo: float, nu_hi: float,
                    spread=(0.6, 1.4), centre: float = 0.8) -> dict:
    dq = rng.uniform(*spread)
    dp = rng.uniform(*spread)
    nu = rng.uniform(nu_lo, nu_hi)
    return {
        "Q": rng.uniform(-centre, centre),
        "P": rng.uniform(-centre, centre),
        "dQ": dq,
        "dP": dp,
        "hbar": 2.0 * dq * dp / nu,
    }


def _packet(data: dict):
    from mepack import PacketMoments

    return PacketMoments(data["Q"], data["P"], data["dQ"], data["dP"], hbar=data["hbar"])


# ---------------------------------------------------------------------------
# moments: exact moment table plus seeded operator words
# ---------------------------------------------------------------------------


class Moments:
    name = "moments"

    @staticmethod
    def make_inputs(seed: int, size: str) -> dict:
        spec = SIZES[size]["moments"]
        rng = random.Random(f"moments-{seed}")
        pool = load_golden("moments.json")["pool"]
        words = []
        for degree, count in spec["words"].items():
            # drawn with replacement, so repeated words hit the caches
            words += rng.choices(sorted(pool[degree]), k=count)
        rng.shuffle(words)
        table = [
            (a, n - a) for n in range(spec["table_degree"] + 1) for a in range(n + 1)
        ]
        return {"table": table, "words": words, "packet": _numeric_packet(rng, 2.0, 4.0)}

    @staticmethod
    def run(inputs: dict, ctx: dict):
        from mepack import PacketMoments, expectation_quantum, moment_classical, parse_weyl
        from mepack.algebra import Expr, PhasePolynomial, WeylPolynomial

        sym = PacketMoments.symbolic()
        one = Expr.number(1)
        table = []
        for a, b in inputs["table"]:
            quantum = expectation_quantum(sym, WeylPolynomial({(a, b): one}))
            classical = moment_classical(sym, PhasePolynomial({(a, b): one}))
            table.append((quantum, classical))
        words = [expectation_quantum(sym, parse_weyl("*".join(w))) for w in inputs["words"]]
        return {"table": table, "words": words}

    @staticmethod
    def check(inputs: dict, results: dict, ctx: dict) -> list:
        from mepack.algebra import format_expression
        from mepack.oracle import fock_expectation, fock_state, gaussian_moment_numeric

        golden = load_golden("moments.json")
        checks = []
        for (a, b), (quantum, classical) in zip(inputs["table"], results["table"]):
            ref = golden["table"][f"{a},{b}"]
            got = format_expression(quantum)
            checks.append(_check(f"golden quantum q^{a}p^{b}", got == ref["quantum"], got))
            got = format_expression(classical)
            checks.append(_check(f"golden classical q^{a}p^{b}", got == ref["classical"], got))
        for word, value in zip(inputs["words"], results["words"]):
            ref = golden["pool"][str(len(word))][word]
            got = format_expression(value)
            checks.append(_check(f"golden word {word}", got == ref, got))

        packet = _packet(inputs["packet"])
        bindings = packet.bindings()
        degree = max([len(w) for w in inputs["words"]] + [a + b for a, b in inputs["table"]])
        state = fock_state(packet, degree=degree)
        for (a, b), (quantum, classical) in zip(inputs["table"], results["table"]):
            oracle = fock_expectation(state, [(1, "q" * a + "p" * b)])
            checks.append(_close(f"fock q^{a}p^{b}", quantum.evaluate(bindings), oracle))
            quad = gaussian_moment_numeric(packet, a, b)
            checks.append(_close(f"quadrature q^{a}p^{b}", classical.evaluate(bindings), quad))
        for word, value in zip(inputs["words"], results["words"]):
            oracle = fock_expectation(state, [(1, word)])
            checks.append(_close(f"fock word {word}", value.evaluate(bindings), oracle))
        return checks


# ---------------------------------------------------------------------------
# corrections: quantum_correction over a (degree, order) grid
# ---------------------------------------------------------------------------


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _random_potential(rng: random.Random, degree: int) -> dict:
    """Small exact rationals for m and V_0..V_degree."""
    return {
        "m": [rng.randint(2, 8), 4],
        "V": [[_nonzero(rng, 8), 8] for _ in range(degree + 1)],
    }


def _potential(data: dict):
    from mepack.dynamics import PolynomialPotential

    return PolynomialPotential(
        Fraction(*data["m"]), tuple(Fraction(*v) for v in data["V"])
    )


def _tail_levels(nu: float, tail_tol: float) -> int:
    """Levels below which all but `tail_tol` of the geometric weight lies."""
    x = (nu - 1.0) / (nu + 1.0)
    return math.ceil(math.log(tail_tol) / math.log(x))


def _fock_time_derivative(packet, potential, order: int, cutoff: int) -> complex:
    """Tr(rho X_order) with X_{n+1} = [X_n, H] / (i hbar) and X_0 = p."""
    import numpy as np
    from mepack.oracle import fock_state, hamiltonian_matrix

    state = fock_state(packet, cutoff=cutoff)
    h = hamiltonian_matrix(state, potential)
    x = state.p_mat
    for _ in range(order):
        x = (x @ h - h @ x) / (1j * state.hbar)
    return complex(np.trace(state.rho @ x))


def _classical_time_derivative(packet, potential, order: int) -> float:
    """Gaussian average of d^order p/dt^order from the Poisson chain, by
    Gauss-Hermite quadrature of each monomial."""
    from mepack.dynamics import derivatives_classical
    from mepack.oracle import gaussian_moment_numeric

    chain = derivatives_classical(potential, order).p[-1]
    total = 0.0
    for (a, b), coeff in chain.terms():
        total += coeff.constant_value().to_complex().real * gaussian_moment_numeric(packet, a, b)
    return total


class Corrections:
    name = "corrections"

    @staticmethod
    def make_inputs(seed: int, size: str) -> dict:
        spec = SIZES[size]["corrections"]
        rng = random.Random(f"corrections-{seed}")
        degrees = list(spec["degrees"])
        rng.shuffle(degrees)
        return {
            "degrees": degrees,
            "orders": list(spec["orders"]),
            "packet": _numeric_packet(rng, 1.5, 3.0),
            "potentials": {str(d): _random_potential(rng, d) for d in degrees},
        }

    @staticmethod
    def run(inputs: dict, ctx: dict):
        from mepack.dynamics import PolynomialPotential, quantum_correction

        out = []
        for degree in inputs["degrees"]:
            potential = PolynomialPotential.symbolic(degree)
            for order in inputs["orders"]:
                out.append(((degree, order), quantum_correction(potential, order)))
        return out

    @staticmethod
    def check(inputs: dict, results: list, ctx: dict) -> list:
        from mepack.cli import format_nu_polynomial

        golden = load_golden("corrections.json")
        packet = _packet(inputs["packet"])
        bindings = packet.bindings()
        checks = []
        for (degree, order), corr in results:
            tag = f"degree {degree} order {order}"
            got = format_nu_polynomial(corr)
            checks.append(_check(f"golden {tag}", got == golden[f"{degree},{order}"], got))
            if order <= 4 or degree == 3:
                checks.append(_check(f"zero {tag}", corr.is_zero(), got))
            data = inputs["potentials"][str(degree)]
            potential = _potential(data)
            values = dict(bindings, m=float(Fraction(*data["m"])))
            values.update({f"V{k}": float(Fraction(*v)) for k, v in enumerate(data["V"])})
            # the commutator chain spreads by `degree` levels per order, so
            # keep that many levels of margin above the weight tail
            cutoff = _tail_levels(bindings["nu"], 1e-30) + degree * order + 16
            quantum = _fock_time_derivative(packet, potential, order, cutoff)
            classical = _classical_time_derivative(packet, potential, order)
            checks.append(_close(f"fock {tag}", corr.evaluate(values) + classical, quantum))
        return checks


# ---------------------------------------------------------------------------
# fock-evolve: the numeric Fock-matrix oracle and Taylor propagation
# ---------------------------------------------------------------------------

EVOLVE_TIMES = (0.05, 0.1, 0.15)


class FockEvolve:
    name = "fock-evolve"

    @staticmethod
    def make_inputs(seed: int, size: str) -> dict:
        spec = SIZES[size]["fock-evolve"]
        rng = random.Random(f"fock-evolve-{seed}")
        # narrow packets keep the quartic evolution's truncation leakage
        # below 1e-11 at the largest time
        packet = _numeric_packet(rng, spec["nu"], spec["nu"], (0.6, 1.0), 0.5)
        words = [
            "".join(rng.choice("qp") for _ in range(rng.randint(2, spec["max_word"])))
            for _ in range(spec["words"])
        ]
        return {
            "packet": packet,
            "cutoff": spec["cutoff"],
            "order": spec["order"],
            "words": words,
            "harmonic": {"m": [1, 1], "V": [[0, 1], [_nonzero(rng, 4), 8], [rng.randint(4, 12), 8]]},
            # no zero coefficient, so every seed builds Taylor tables of one size
            "quartic": {
                "m": [1, 1],
                "V": [[0, 1], [_nonzero(rng, 4), 8], [rng.randint(4, 12), 8],
                      [_nonzero(rng, 2), 8], [rng.randint(2, 6), 8]],
            },
        }

    @staticmethod
    def run(inputs: dict, ctx: dict):
        from mepack import fock_evolve, fock_expectation, fock_state, propagate
        from mepack import state_entropy, state_moments

        packet = _packet(inputs["packet"])
        state = fock_state(packet, degree=6, cutoff=inputs["cutoff"])
        words = [fock_expectation(state, [(1, w)]) for w in inputs["words"]]
        evolved = {}
        for name in ("harmonic", "quartic"):
            potential = _potential(inputs[name])
            runs = []
            for t in EVOLVE_TIMES:
                later = fock_evolve(state, potential, t)
                runs.append((state_moments(later), later.leakage))
            evolved[name] = runs
        entropy = state_entropy(state)
        trajectory = propagate(
            packet, _potential(inputs["quartic"]), (0.0,) + EVOLVE_TIMES,
            order=inputs["order"], mode="taylor-origin", kind="quantum",
        )
        return {"words": words, "evolved": evolved, "entropy": entropy,
                "trajectory": trajectory}

    @staticmethod
    def check(inputs: dict, results: dict, ctx: dict) -> list:
        from mepack import entropy_quantum, evolve_quadratic, expectation_value, parse_weyl

        packet = _packet(inputs["packet"])
        checks = []
        for word, oracle in zip(inputs["words"], results["words"]):
            engine = expectation_value(packet, parse_weyl("*".join(word)))
            checks.append(_close(f"engine word {word}", engine, oracle))
        fields = ("Q", "P", "dQ", "dP")
        for t, (fock, leakage) in zip(EVOLVE_TIMES, results["evolved"]["harmonic"]):
            exact = evolve_quadratic(packet, _potential(inputs["harmonic"]), t).bindings()
            got = fock.bindings()
            for f in fields:
                checks.append(_close(f"harmonic {f} t={t}", got[f], exact[f], 1e-9))
        trajectory = results["trajectory"]
        # the Taylor remainder bounds the propagation error; 1e-9 covers the
        # Fock side's own truncation
        tol = 10.0 * trajectory.remainder_estimate + 1e-9
        for t, (fock, leakage), taylor in zip(
            EVOLVE_TIMES, results["evolved"]["quartic"], trajectory.packets[1:]
        ):
            got, ref = taylor.bindings(), fock.bindings()
            for f in fields:
                delta = abs(got[f] - ref[f])
                checks.append(_check(f"quartic taylor {f} t={t}", delta <= tol,
                                     f"delta {delta!r} tol {tol!r}"))
        nu = packet.bindings()["nu"]
        checks.append(_close("entropy", results["entropy"], entropy_quantum(nu), 1e-9))
        return checks


# ---------------------------------------------------------------------------
# cli-batch: every bundled scenario through `mepack run`, one process each
# ---------------------------------------------------------------------------


def scenario_names() -> list:
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def strip_footer(report: bytes) -> bytes:
    """report.txt without the run-metadata footer that follows `---`."""
    head, sep, _footer = report.rpartition(b"\n---\n")
    return head + sep if sep else report


def read_outputs(out_dir: Path) -> dict:
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        files[path.name] = strip_footer(data) if path.name == "report.txt" else data
    return files


class CliBatch:
    name = "cli-batch"

    @staticmethod
    def make_inputs(seed: int, size: str) -> dict:
        chosen = SIZES[size]["cli-batch"]["scenarios"] or scenario_names()
        order = sorted(chosen)
        random.Random(f"cli-batch-{seed}").shuffle(order)
        return {"scenarios": order}

    @staticmethod
    def run(inputs: dict, ctx: dict):
        """Run each scenario as its own `python -m mepack.cli run` process.

        With tracing on, the process runs `cli_shim.py` under `-X importtime`
        instead; the shim writes the layer counters to a JSON file.
        """
        workdir = Path(ctx["workdir"])
        results = {}
        for name in inputs["scenarios"]:
            out_dir = workdir / "cli" / name
            scenario = SCENARIO_DIR / f"{name}.json"
            tail = ["run", str(scenario), "--out", str(out_dir)]
            if ctx["trace"]:
                trace_file = workdir / f"trace-{name}.json"
                cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"),
                       str(trace_file)] + tail
            else:
                trace_file = None
                cmd = [sys.executable, "-m", "mepack.cli"] + tail
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=ctx["env"], capture_output=True,
                                  timeout=120)
            wall = time.perf_counter() - start
            results[name] = {
                "returncode": proc.returncode,
                "stderr": proc.stderr.decode(errors="replace"),
                "wall_s": wall,
                "out_dir": str(out_dir),
                "trace_file": str(trace_file) if trace_file else None,
            }
        return results

    @staticmethod
    def check(inputs: dict, results: dict, ctx: dict) -> list:
        checks = []
        for name in inputs["scenarios"]:
            res = results[name]
            if res["returncode"] != 0:
                detail = res["stderr"].strip().splitlines()[-1:] or [""]
                checks.append(_check(f"exit {name}", False,
                                     f"exit code {res['returncode']}: {detail[0]}"))
                continue
            checks.extend(compare_outputs(name, read_outputs(Path(res["out_dir"]))))
        return checks


def compare_outputs(name: str, files: dict) -> list:
    """Byte-for-byte comparison with golden/cli/<name>/."""
    ref_dir = GOLDEN / "cli" / name
    expected = {p.name: p.read_bytes() for p in sorted(ref_dir.iterdir())}
    checks = [_check(f"{name} file set", sorted(files) == sorted(expected),
                     f"got {sorted(files)} expected {sorted(expected)}")]
    for fname, ref in expected.items():
        got = files.get(fname)
        checks.append(_check(f"{name}/{fname}", got == ref,
                             "identical" if got == ref else "bytes differ"))
    return checks


WORKLOADS = {w.name: w for w in (Moments, Corrections, FockEvolve, CliBatch)}


def worker_env() -> dict:
    """Environment for worker and scenario processes: the checkout's sources
    first on the path and single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MEPACK_THREADS", None)
    return env
