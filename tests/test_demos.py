"""Smoke test: every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

@pytest.mark.parametrize(
    "script",
    [
        "01_norm_catalog.py",
        "02_squeeze_the_cauchy_norm.py",
        "03_boundary_limits.py",
        "04_mode_analysis.py",
        "05_counterexamples.py",
        "06_interpolation_picture.py",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
