"""Smoke test: the numbered demos run to completion through the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the warning policy of pyproject.toml, which a subprocess does not inherit
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_all_six_demos_found():
    assert len(DEMOS) == 6
