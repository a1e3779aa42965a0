"""Cold-process benchmark of mepack.

    python3 perfbench/run.py --workload moments --seed 1 --seconds 12 --trace 0

Workloads: moments, corrections, fock-evolve, cli-batch (see
bench_workloads.py and README.md).  Each iteration runs in a fresh
interpreter (worker.py), so every lru_cache starts cold, as in a user's
`mepack run`.  Iterations repeat until --seconds have passed and at least
three have run; the end-to-end metrics are their medians.  Every
iteration's results are checked against golden references and numeric
oracles outside its timed section.

With --trace 1 the run alternates untraced and traced iterations and
prints the per-layer metrics of the median traced iteration, together
with the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record of
the run, spans included, goes to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import LAYERS, import_times, layer_metrics
from bench_workloads import ROOT, SCENARIO_DIR, WORKLOADS, scenario_names, worker_env

HERE = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench_runs"
MIN_ITERATIONS = 3
# a run ends within three minutes even when the program gets much slower:
# no iteration starts after START_LIMIT_S and every process is stopped at
# TIME_LIMIT_S, both counted from this process's start
START_LIMIT_S = 120.0
TIME_LIMIT_S = 170.0
STARTED = time.perf_counter()


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout(workload: str):
    """Refuse to run without the program's sources; never fall back to an
    installed copy of mepack."""
    if not (ROOT / "src" / "mepack" / "__init__.py").is_file():
        fail(f"no mepack sources under {ROOT / 'src'}")
    if workload == "cli-batch" and not list(SCENARIO_DIR.glob("*.json")):
        fail(f"no scenarios under {SCENARIO_DIR}")


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json lists it."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {ROOT / 'BENCHMARK.json'}: {exc}")
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def time_left() -> float:
    return TIME_LIMIT_S - (time.perf_counter() - STARTED)


def warm_up(env: dict):
    """Untimed import, so byte-compilation is not charged to setup_s."""
    try:
        proc = subprocess.run([sys.executable, "-c", "import mepack.cli"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=time_left())
    except subprocess.TimeoutExpired:
        fail("importing mepack did not finish in time")
    if proc.returncode != 0:
        fail(f"cannot import mepack: {proc.stderr.strip().splitlines()[-1:]}")


def run_worker(args, trace: bool, workdir: Path, env: dict) -> dict:
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), args.workload, str(args.seed), args.size,
            "1" if trace else "0", str(workdir)]
    # own process group, so a timed-out worker goes down with its children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(time_left(), 1.0))
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"worker stopped at the {TIME_LIMIT_S} s limit"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"trace": trace, "error": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
    record = json.loads(lines[-1])
    if trace:
        record["import_times"] = import_times(stderr)
    return record


def median_record(records: list) -> dict:
    ordered = sorted(records, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def trace_metrics(workload: str, traced: dict, plain: list) -> tuple:
    snap = traced["snapshot"]
    metrics, absent = layer_metrics(snap)
    rels = [c["rel"] for c in traced["checks"] if "rel" in c]
    metrics["oracle.max_rel_delta"] = max(rels, default=0.0)

    if workload == "cli-batch":
        per_scenario = [s["import_times"] for s in traced["scenarios"].values()
                        if s.get("import_times")]
    else:
        per_scenario = [traced["import_times"]]
    for package in ("mepack", "numpy", "scipy"):
        values = [t[package] for t in per_scenario]
        metrics[f"cli.import.{package}_s"] = statistics.median(values) if values else 0.0
    for name in scenario_names():
        walls = [r["scenarios"][name]["wall_s"] for r in plain
                 if name in r.get("scenarios", {})]
        metrics[f"cli.{name}.s"] = statistics.median(walls) if walls else 0.0

    layer_self = sum(snap["self_s"].get(layer, 0.0) for layer in set(LAYERS.values()))
    untraced = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced
    metrics["trace.import_s"] = traced["import_s"]
    metrics["trace.remainder_s"] = traced["wall_s"] - layer_self - traced["import_s"]
    metrics["trace.spans"] = len(snap["spans"])
    return metrics, absent


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for a quick self-test")
    args = parser.parse_args(argv)
    check_checkout(args.workload)
    units = metric_units()
    # workers run in their own process group; turning SIGTERM into SystemExit
    # lets run_worker's `finally` stop the current one
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = worker_env()
    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = RUNS_DIR / f"work-{tag}-{os.getpid()}"
    warm_up(env)

    records = []
    start = time.perf_counter()
    try:
        while True:
            for trace in ((False, True) if args.trace else (False,)):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                records.append(run_worker(args, trace, workdir, env))
            elapsed = time.perf_counter() - start
            rounds = len(records) // (2 if args.trace else 1)
            # stop at the round boundary nearest to --seconds
            remaining = args.seconds - elapsed - elapsed / rounds / 2
            if (rounds >= (1 if args.trace else MIN_ITERATIONS) and remaining <= 0) \
                    or time.perf_counter() - STARTED >= START_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    for record in records:
        if "error" in record:
            attempted += 1
            failed += 1
        else:
            attempted += len(record["checks"])
            failed += sum(not c["ok"] for c in record["checks"])
    plain = [r for r in records if "error" not in r and not r["trace"]]
    traced = [r for r in records if "error" not in r and r["trace"] and "snapshot" in r]

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    absent = []
    if plain and (traced or not args.trace):
        if args.trace:
            values, absent = trace_metrics(args.workload, median_record(traced), plain)
        else:
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(r["setup_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "pass_ratio": 1.0 - failed / attempted,
            }
        summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        summary["metrics"] = {}

    versions = next((r["versions"] for r in records if "versions" in r), {})
    machine = dict(versions, nproc=os.cpu_count(),
                   cpus_usable=len(os.sched_getaffinity(0)), commit=git_commit())
    full = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                size=args.size, trace=args.trace, machine=machine, absent=absent,
                iterations=records)
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  iterations {len(plain)} untraced, {len(traced)} traced")
    print("machine " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    for name, metric in summary["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<40} {failed / max(attempted, 1):>16.6g} ratio"
          f"  ({failed} of {attempted} checks failed)")
    for name in absent:
        print(f"  {name:<40} {'absent':>16}")
    problems = [f"iteration error: {r['error']}" for r in records if "error" in r]
    problems += [f"FAILED {c['name']}: {c['detail'][-300:]}"
                 for r in records for c in r.get("checks", []) if not c["ok"]]
    for line in problems[:20]:
        print(f"  {line}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more in {RUNS_DIR / (tag + '.json')}")
    print(json.dumps(summary))
    return 0 if summary["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
