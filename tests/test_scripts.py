"""Scripts: they import and parse their arguments; the suite comparison gates."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["fall_identity_sweep.py", "monotonicity_experiment.py", "compare_suite.py"]
)
def test_help_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def _suite_report(passed9, drift5, mismatch7):
    return {"command": "suite", "results": {"criteria": [
        {"index": 5, "name": "exact-solution energy", "passed": True,
         "details": {"target": -0.540379646092, "relative_drift": drift5}},
        {"index": 7, "name": "energy derivative identity", "passed": True,
         "details": {"mismatch_refined": mismatch7, "negative_control": 40.4}},
        {"index": 9, "name": "barrier identities", "passed": passed9,
         "details": {"(n=3,sigma=0.5)": {"interior_ratios": [3.99995, 3.99998]}}},
    ]}}


def _compare(tmp_path, parent, change):
    paths = []
    for name, report in (("parent.json", parent), ("change.json", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_suite.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=120,
    )


def test_compare_suite_passes_small_moves(tmp_path):
    # relative_drift is compared in absolute terms: a 75 % relative move of
    # rounding noise passes, as does a 2.7e-7 relative move of a mismatch
    proc = _compare(tmp_path, _suite_report(True, 4.9e-15, 0.00104906),
                    _suite_report(True, 8.6e-15, 0.0010490603))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.rstrip().endswith("OK: 0 failure(s) at --rel 1e-06")


def test_compare_suite_fails_on_flipped_verdict_or_moved_detail(tmp_path):
    parent = _suite_report(True, 4.9e-15, 0.00104906)
    proc = _compare(tmp_path, parent, _suite_report(False, 4.9e-15, 0.00104906))
    assert proc.returncode == 1
    assert "criterion 9: passed True -> False" in proc.stdout
    proc = _compare(tmp_path, parent, _suite_report(True, 4.9e-15, 0.0011))
    assert proc.returncode == 1
    assert "criterion 7 mismatch_refined" in proc.stdout
