"""One cold iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE WORKDIR

Times the import of mepack (set-up) before anything else is imported, so
the modules mepack shares with the benchmark's helpers are charged to it.
Then builds the seeded inputs, runs the workload's timed section, records
peak resident memory, and checks the results outside the timed section.  With TRACE=1 the per-layer tracer is
installed for the timed section only.  Prints one JSON object.
"""

from __future__ import annotations

import sys
import time

if __name__ == "__main__":
    _start = time.perf_counter()
    if sys.argv[1:2] == ["cli-batch"]:
        import mepack.cli  # noqa: F401
    else:
        import mepack  # noqa: F401
    SETUP_S = time.perf_counter() - _start

import json
import resource
import traceback
from pathlib import Path

from bench_workloads import ROOT, WORKLOADS, worker_env


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas}


def _cli_trace(results: dict) -> tuple:
    """Merged layer snapshot and total import seconds of the traced scenario
    processes; adds each process's `-X importtime` figures to its result."""
    from bench_trace import import_times, merge

    snaps, imports = [], []
    for name, res in results.items():
        trace_file = res.get("trace_file")
        if not trace_file or not Path(trace_file).exists():
            continue
        data = json.loads(Path(trace_file).read_text())
        snaps.append(data["snapshot"])
        imports.append(data["import_s"])
        res["import_times"] = import_times(res["stderr"])
    return merge(snaps), sum(imports)


def main(argv):
    workload_name, seed, size, trace, workdir = argv
    workload = WORKLOADS[workload_name]
    trace = trace == "1"
    inputs = workload.make_inputs(int(seed), size)
    ctx = {"workdir": workdir, "trace": trace, "env": worker_env()}
    record = {"workload": workload_name, "seed": int(seed), "trace": trace, "setup_s": SETUP_S}
    import mepack

    source = Path(mepack.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"mepack imported from {source}, not from {ROOT / 'src'}")

    tracer = None
    if trace and workload_name != "cli-batch":
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    checks = []
    start = time.perf_counter()
    try:
        results = workload.run(inputs, ctx)
    except Exception:  # the failure is counted and reported, not raised
        results = None
        checks.append({"name": "timed section", "ok": False, "detail": traceback.format_exc()})
    record["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        record["snapshot"] = tracer.snapshot()  # before the checks touch the caches
        record["import_s"] = 0.0
    record["peak_rss_mb"] = _peak_rss_mb()

    if results is not None:
        try:
            checks += workload.check(inputs, results, ctx)
        except Exception:
            checks.append({"name": "checks", "ok": False, "detail": traceback.format_exc()})
    record["checks"] = checks
    if trace and tracer is None and results is not None:
        record["snapshot"], record["import_s"] = _cli_trace(results)
    if workload_name == "cli-batch" and results is not None:
        record["scenarios"] = {
            name: {k: res.get(k) for k in ("wall_s", "import_times", "returncode")}
            for name, res in results.items()
        }
    record["versions"] = _versions()
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
