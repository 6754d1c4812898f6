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


def _rounding_report(asym1, mass3, inv8):
    return {"command": "suite", "results": {"criteria": [
        {"index": 1, "name": "multiplier symmetry", "passed": True,
         "details": {"max_rel_asymmetry": asym1}},
        {"index": 3, "name": "kernel normalizers", "passed": True,
         "details": {"kappa_half_err": 0.0, "unit_mass_errors": {"(4,0.75)": mass3}}},
        {"index": 8, "name": "exponent equivalence suite", "passed": True,
         "details": {"amplitude_invariance_worst": inv8, "involution_worst": 0.0,
                     "tau_negation_worst": 1.1e-16, "admissible_draws": 100}},
    ]}}


def test_compare_suite_judges_rounding_entries_in_absolute_terms(tmp_path):
    # the moves of a change to the Gamma function: 0.83 relative on a unit-mass
    # error of 1e-16 is rounding, well inside 1% of each criterion's gate
    parent = _rounding_report(1.07e-15, 1.11e-16, 3.27e-15)
    proc = _compare(tmp_path, parent, _rounding_report(2.1e-15, 6.66e-16, 3.13e-15))
    assert proc.returncode == 0, proc.stdout
    assert "criterion 3 (kernel normalizers): passed True -> True, no relative move" in proc.stdout
    # a move of more than 1% of the gate fails: 1e-8 for unit mass, 1e-12 otherwise
    for report, entry in (
        (_rounding_report(1.07e-15, 2e-10, 3.27e-15), "criterion 3 unit_mass_errors/(4,0.75)"),
        (_rounding_report(2e-14, 1.11e-16, 3.27e-15), "criterion 1 max_rel_asymmetry"),
        (_rounding_report(1.07e-15, 1.11e-16, 2e-14), "criterion 8 amplitude_invariance_worst"),
    ):
        proc = _compare(tmp_path, parent, report)
        assert proc.returncode == 1
        assert entry in proc.stdout and "absolute" in proc.stdout
