"""Regenerate the golden references in perfbench/golden/ from this checkout.

    python3 perfbench/capture_golden.py

The references were captured once at the seed commit; the benchmark then
compares every later commit's outputs with them byte for byte.  Rerun this
only to add references for new inputs, never to absorb a changed output.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_workloads import GOLDEN, ROOT, SCENARIO_DIR, SIZES, read_outputs, worker_env

sys.path.insert(0, str(ROOT / "src"))

POOL_DEGREES = (6, 8, 10, 12, 14)
POOL_SIZE = 12


def word_pool(degree: int) -> list:
    """POOL_SIZE distinct orderings of q^(degree/2) p^(degree/2)."""
    rng = random.Random(f"pool-{degree}")
    words = set()
    while len(words) < POOL_SIZE:
        letters = list("q" * (degree // 2) + "p" * (degree // 2))
        rng.shuffle(letters)
        words.add("".join(letters))
    return sorted(words)


def capture_moments() -> dict:
    from mepack import PacketMoments, expectation_quantum, moment_classical, parse_weyl
    from mepack.algebra import Expr, PhasePolynomial, WeylPolynomial, format_expression

    sym = PacketMoments.symbolic()
    one = Expr.number(1)
    table = {}
    top = SIZES["full"]["moments"]["table_degree"]
    for n in range(top + 1):
        for a in range(n + 1):
            b = n - a
            table[f"{a},{b}"] = {
                "quantum": format_expression(
                    expectation_quantum(sym, WeylPolynomial({(a, b): one}))),
                "classical": format_expression(
                    moment_classical(sym, PhasePolynomial({(a, b): one}))),
            }
    pool = {}
    for degree in POOL_DEGREES:
        pool[str(degree)] = {
            w: format_expression(expectation_quantum(sym, parse_weyl("*".join(w))))
            for w in word_pool(degree)
        }
    return {"table": table, "pool": pool}


def capture_corrections() -> dict:
    from mepack.cli import format_nu_polynomial
    from mepack.dynamics import PolynomialPotential, quantum_correction

    spec = SIZES["full"]["corrections"]
    out = {}
    for degree in spec["degrees"]:
        potential = PolynomialPotential.symbolic(degree)
        for order in spec["orders"]:
            out[f"{degree},{order}"] = format_nu_polynomial(quantum_correction(potential, order))
    return out


def capture_cli():
    target = GOLDEN / "cli"
    shutil.rmtree(target, ignore_errors=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for scenario in sorted(SCENARIO_DIR.glob("*.json")):
            out_dir = Path(tmp) / scenario.stem
            subprocess.run(
                [sys.executable, "-m", "mepack.cli", "run", str(scenario), "--out", str(out_dir)],
                cwd=ROOT, env=worker_env(), check=True, capture_output=True,
            )
            dest = target / scenario.stem
            dest.mkdir(parents=True)
            for name, data in read_outputs(out_dir).items():
                (dest / name).write_bytes(data)


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, data in (("moments.json", capture_moments()),
                       ("corrections.json", capture_corrections())):
        (GOLDEN / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    capture_cli()


if __name__ == "__main__":
    main()
