"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They use the small input size, so the whole file runs in about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_names(checks) -> list:
    return [c["name"] for c in checks if not c["ok"]]


# -- the checkers reject wrong results ------------------------------------------


def test_moments_checker_rejects_perturbed_expression():
    from mepack.algebra import Expr

    inputs = bw.Moments.make_inputs(5, "small")
    results = bw.Moments.run(inputs, {})
    assert failed_names(bw.Moments.check(inputs, results, {})) == []

    quantum, classical = results["table"][7]
    results["table"][7] = (quantum + Expr.number(Fraction(1, 10**12)), classical)
    failed = failed_names(bw.Moments.check(inputs, results, {}))
    a, b = inputs["table"][7]
    assert f"golden quantum q^{a}p^{b}" in failed


def test_corrections_checker_rejects_perturbed_expression():
    from mepack.algebra import Expr

    inputs = bw.Corrections.make_inputs(5, "small")
    results = bw.Corrections.run(inputs, {})
    assert failed_names(bw.Corrections.check(inputs, results, {})) == []

    (degree, order), corr = results[-1]
    results[-1] = ((degree, order), corr + Expr.symbol("nu", -3))
    failed = failed_names(bw.Corrections.check(inputs, results, {}))
    tag = f"degree {degree} order {order}"
    assert f"golden {tag}" in failed
    assert f"fock {tag}" in failed


def test_cli_checker_rejects_changed_csv_byte():
    ref_dir = bw.GOLDEN / "cli" / "moments"
    files = {p.name: p.read_bytes() for p in ref_dir.iterdir()}
    assert failed_names(bw.compare_outputs("moments", files)) == []

    data = bytearray(files["moments.csv"])
    data[len(data) // 2] ^= 1
    files["moments.csv"] = bytes(data)
    assert failed_names(bw.compare_outputs("moments", files)) == ["moments/moments.csv"]


def test_report_footer_is_ignored():
    body = b"line one\n\n---\n"
    assert bw.strip_footer(body + b"scenario: a.json\n") == body
    assert bw.strip_footer(body + b"scenario: b.json\n") == body


# -- the command's output --------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_is_quick_and_correct(workload):
    start = time.perf_counter()
    result = result_line(run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                                   "--trace", "0", "--size", "small"))
    assert time.perf_counter() - start < 60
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_every_end_to_end_metric_prints_with_its_unit():
    proc = run_bench("--workload", "fock-evolve", "--seed", "4", "--seconds", "0",
                     "--trace", "0", "--size", "small")
    metrics = result_line(proc)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())
    for name, unit in dict(expected, fail_ratio="ratio").items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in proc.stdout.splitlines()), name


def test_every_per_layer_metric_prints_with_its_unit():
    metrics = result_line(run_bench("--workload", "corrections", "--seed", "4", "--seconds",
                                    "0", "--trace", "1", "--size", "small"))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["dynamics.quantum_correction.calls"]["value"] > 0
    layer_self = sum(metrics[f"{layer}.self_s"]["value"]
                     for layer in set(bench_trace.LAYERS.values()))
    parts = layer_self + metrics["trace.import_s"]["value"] + metrics["trace.remainder_s"]["value"]
    assert parts == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert 0 <= metrics["trace.remainder_s"]["value"] < 0.2 * metrics["trace.wall_s"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "moments", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- tracing helpers ----------------------------------------------------------------


def test_deleted_function_is_reported_absent():
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        from mepack.algebra.words import swap_counts

        swap_counts(2, 3)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    metrics, absent = bench_trace.layer_metrics(snap)
    assert metrics["algebra.words.swap_counts.calls"] >= 1
    assert absent == []

    snap["wrapped"] = [k for k in snap["wrapped"] if k != "algebra.words:swap_counts"]
    snap["swap_distinct"] = None
    metrics, absent = bench_trace.layer_metrics(snap)
    assert "algebra.words.swap_counts.calls" in absent
    assert "algebra.words.swap_counts.distinct" in absent
    assert "algebra.words.swap_counts.calls" not in metrics


def test_uninstall_restores_the_originals():
    import mepack.algebra.expression as expression
    import mepack.quantum as quantum

    before = (expression.Expr.__mul__, quantum.expectation_quantum, quantum.to_ladder)
    tracer = bench_trace.Tracer()
    tracer.install()
    assert quantum.expectation_quantum is not before[1]
    tracer.uninstall()
    assert (expression.Expr.__mul__, quantum.expectation_quantum, quantum.to_ladder) == before


def test_import_times_from_importtime_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |   scipy",
        "import time:       400 |        700 |   scipy.linalg",
        "import time:        10 |       1500 | mepack",
        "import time:        20 |         20 | mepack.cli",
    ])
    assert bench_trace.import_times(stderr) == {"mepack": 1520e-6, "numpy": 500e-6,
                                                "scipy": 750e-6}
