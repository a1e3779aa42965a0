"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--out FILE] WORKLOAD...

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median: the spread a change's bound has to be judged against.
With --out the per-seed results and the summary are written as JSON.
For the per-layer metrics, run run.py with --trace 1 directly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "result": result})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in (result or {}).get("metrics", {}).items()),
                  flush=True)
        names = {k for r in runs if r["result"] for k in r["result"]["metrics"]}
        summary = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs
                             if r["result"] and name in r["result"]["metrics"]])
            for name in sorted(names)
        }
        report[workload] = {"runs": runs, "summary": summary,
                            "all_correct": all(r["result"] and r["result"]["correct"]
                                               for r in runs)}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(w["all_correct"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
