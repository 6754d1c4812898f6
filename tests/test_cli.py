"""Command-line surface: report schema, determinism, exit-status contract."""

import json
import math
import pathlib
import time

import jsonschema
import pytest

from hardyhenon.cli import build_parser, run, serialize_report

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassifyCommand:
    def test_nonexistence_example(self, capsys):
        code, rep = run_json(
            capsys, ["classify", "--n", "3", "--sigma", "0.5", "--alpha", "-1.5", "--p", "2"]
        )
        assert code == 0
        assert rep["results"]["label"] == "NonexistenceAlphaBelowMinus2Sigma"

    def test_report_schema(self, capsys):
        _, rep = run_json(
            capsys, ["classify", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2"]
        )
        assert set(rep) == {"command", "params", "results", "tolerances", "elapsed"}

    def test_reports_validate_against_shipped_schema(self, capsys):
        for argv in (
            ["classify", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2"],
            ["constants", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2"],
            ["kelvin", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "1.8"],
            ["verify-lemma", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
             "--radii", "1"],
        ):
            _, rep = run_json(capsys, argv)
            jsonschema.validate(rep, SCHEMA)


class TestConstantsCommand:
    def test_reference_values(self, capsys):
        code, rep = run_json(
            capsys, ["constants", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2"]
        )
        assert code == 0
        res = rep["results"]
        assert res["C_p_sigma_alpha"] == pytest.approx(0.6366197724, rel=1e-9)
        assert res["kappa_sigma"] == 1.0
        assert res["p_n_sigma"] == pytest.approx(1.0 / math.pi ** 2, rel=1e-11)


class TestVerifyLemmaCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code, rep = run_json(
            capsys,
            ["verify-lemma", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
             "--radii", "0.5,1,2"],
        )
        assert code == 0
        assert rep["results"]["max_rel_error"] < 1e-6

    def test_violation_exits_one_and_names_check(self, capsys):
        code = run(
            ["verify-lemma", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
             "--tol-fall", "1e-15"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "fall_identity_max_rel_error" in captured.err


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_numeric_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["classify", "--n", "3", "--sigma", "abc",
                                       "--alpha", "0", "--p", "2"])
        assert exc.value.code == 2

    def test_invalid_params_exit_two(self, capsys):
        code = run(["classify", "--n", "3", "--sigma", "1.0", "--alpha", "0", "--p", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "sigma out of range" in captured.err


class TestDeterminism:
    def test_reports_identical_up_to_elapsed(self, capsys):
        argv = ["kelvin", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "1.8"]
        _, rep_a = run_json(capsys, argv)
        _, rep_b = run_json(capsys, argv)
        rep_a.pop("elapsed")
        rep_b.pop("elapsed")
        assert rep_a == rep_b

    def test_serialize_is_byte_stable(self):
        rep = {"command": "x", "results": {"a": 1.23456789012345678, "b": [True, None]},
               "tolerances": {}, "elapsed": 0.0}
        assert serialize_report(rep) == serialize_report(rep)

    def test_significant_digits(self):
        rep = {"command": "x", "results": {"a": math.pi}, "tolerances": {}}
        out = json.loads(serialize_report(rep).decode())
        assert out["results"]["a"] == 3.14159265359


class TestCsvOutput:
    def test_energy_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code = run(
            ["energy", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
             "--grid", "41x33", "--s-range=-4,4", "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "s,E,dE_formula,dE_fd"
        assert len(lines) > 10
        assert lines[-1] == lines[-1].strip()  # LF endings, no CR

    def test_extend_csv_header(self, tmp_path, capsys):
        path = tmp_path / "field.csv"
        code = run(
            ["extend", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
             "--grid", "9x17", "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        assert path.read_text().splitlines()[0] == "r,psi,value"


class TestKelvinCommand:
    def test_equivalence_table_and_invariance(self, capsys):
        code, rep = run_json(
            capsys, ["kelvin", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "1.8"]
        )
        assert code == 0
        res = rep["results"]
        assert res["vartheta"] == pytest.approx(-0.4, rel=1e-9)
        assert all(c["agree"] for c in res["equivalences"])
        assert res["constant_invariance_rel"] < 1e-12


class TestElapsed:
    def test_extend_elapsed_covers_the_computation(self, capsys):
        t0 = time.perf_counter()
        code = run(["extend", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "2",
                    "--grid", "9x17"])
        wall = time.perf_counter() - t0
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["elapsed"] >= 0.5 * wall


class TestSolverDivergence:
    def test_resonant_window_reports_named_violation(self, tmp_path, capsys):
        # a length-3.5 window is Dirichlet-resonant for this configuration:
        # Newton stalls near a residual of 1e-5
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "params": {"n": 3, "sigma": 0.5, "alpha": 0.0, "p": 1.8},
            "s_range": [-1.75, 1.75], "grid": [71, 33], "perturbation": 0.05,
        }))
        code = run(["solve-cylinder", "--spec", str(spec)])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert "solver_convergence" in captured.err
        history = rep["results"]["residual_history"]
        assert len(history) == rep["results"]["iterations"] + 1
        assert history[-1] == rep["results"]["residual_norm"] > 1e-8
