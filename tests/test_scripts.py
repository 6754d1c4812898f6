"""Experiment scripts: they import and parse their arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["fall_identity_sweep.py", "monotonicity_experiment.py"])
def test_help_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
