"""Command-line surface: report schema, determinism, exit-status contract."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import pytest

from hardyhenon.cli import build_parser, run, serialize_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())


# a length-3.5 window is Dirichlet-resonant for this configuration: Newton
# stalls near a residual of 1e-5
RESONANT_SPEC = {
    "params": {"n": 3, "sigma": 0.5, "alpha": 0.0, "p": 1.8},
    "s_range": [-1.75, 1.75], "grid": [71, 33], "perturbation": 0.05,
}
CONVERGING_SPEC = {**RESONANT_SPEC, "s_range": [-4, 4], "grid": [41, 17]}
QUAD = ["--n", "3", "--sigma", "0.5", "--alpha", "0", "--p"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def with_spec(tmp_path, argv):
    """argv with each dict in it written to a JSON file and replaced by its path."""
    path = tmp_path / "spec.json"
    for arg in argv:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
    return [str(path) if isinstance(arg, dict) else arg for arg in argv]


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


class TestEveryReport:
    CASES = {
        "extend": ["extend", *QUAD, "2", "--grid", "9x9"],
        "energy-exact": ["energy", *QUAD, "2", "--grid", "41x17"],
        "energy-perturbed": ["energy", *QUAD, "1.8", "--grid", "41x17", "--perturbation", "0.05"],
        "barrier": ["barrier"],
        "solve-cylinder-converging": ["solve-cylinder", "--spec", CONVERGING_SPEC],
        "solve-cylinder-diverging": ["solve-cylinder", "--spec", RESONANT_SPEC],
    }

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("case", CASES)
    def test_validates_against_shipped_schema(self, tmp_path, capsys, case, out):
        path = tmp_path / "out.csv"
        argv = with_spec(tmp_path, self.CASES[case]) + (["--out", str(path)] if out else [])
        _, rep = run_json(capsys, argv)
        jsonschema.validate(rep, SCHEMA)
        assert rep["command"] == argv[0]
        if out:
            # the table, where there is one, goes to the file only
            assert path.read_text() and "rows" not in rep["results"]


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


class TestExtendCommand:
    @pytest.mark.parametrize("p", ["1.8", "2"])
    def test_reports_flux_miss_against_closed_form(self, capsys, p):
        # the flux at r = 1 is kappa_sigma C^p; measured misses 8.3e-7 (p = 1.8)
        # and 1.3e-7 (p = 2)
        code, rep = run_json(capsys, ["extend", *QUAD, p, "--grid", "9x9"])
        assert code == 0
        res = rep["results"]
        if p == "2":  # kappa_{1/2} = 1 and C = 2 / pi
            assert res["neumann_flux_target"] == pytest.approx(4.0 / math.pi ** 2, rel=1e-11)
        miss = abs(res["neumann_flux_at_r1"] / res["neumann_flux_target"] - 1.0)
        assert res["neumann_flux_rel_error"] == pytest.approx(miss, rel=1e-3)
        assert res["neumann_flux_rel_error"] < 1e-5


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

    @pytest.mark.parametrize("spec", [
        {},
        {"params": {"n": 3}},
        [],
        {"params": {"n": 3, "sigma": 0.5, "alpha": 0.0, "p": 1.8}, "s_range": [-1]},
        {"params": {"n": 3, "sigma": 0.5, "alpha": 0.0, "p": 1.8}, "srange": [-1, 1]},
    ], ids=["empty", "partial-params", "array", "short-s-range", "misspelled-key"])
    def test_malformed_cylinder_spec_exits_two(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = run(["solve-cylinder", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: spec")

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_barrier_needs_two_levels(self, capsys, levels):
        code = run(["barrier", "--levels", levels])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --levels must be at least 2, got {levels}\n"


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


# C = Lambda^{1/(p-1)} leaves the doubles when p is near 1: log C = 1264 at the
# first point and -1170 at the second
AMPLITUDE_OUT_OF_RANGE = {
    "overflow": ["--n", "7", "--sigma", "0.9171138422611018", "--alpha", "-1.8299003669778384",
                 "--p", "1.0012244109248665"],
    "underflow": ["--n", "3", "--sigma", "0.5446343189057535", "--alpha", "-1.0889930466790765",
                  "--p", "1.0008979929178867"],
}


class TestAmplitudeOutOfRange:
    @pytest.mark.parametrize("flow", AMPLITUDE_OUT_OF_RANGE)
    @pytest.mark.parametrize("command, key, note", [
        ("constants", "C_p_sigma_alpha", "C_note"),
        ("kelvin", "constant_invariance_rel", "invariance_note"),
    ])
    def test_named_in_a_valid_report(self, capsys, flow, command, key, note):
        code, rep = run_json(capsys, [command, *AMPLITUDE_OUT_OF_RANGE[flow]])
        jsonschema.validate(rep, SCHEMA)
        assert code == 0
        assert rep["results"][key] is None
        assert rep["results"][note].startswith(f"singular_constant {flow}s")


class TestElapsed:
    @pytest.mark.parametrize("argv, code", [
        (["extend", *QUAD, "2", "--grid", "9x17"], 0),
        # a diverging solve reports no field, so serializing the report
        # costs little against the solve
        (["solve-cylinder", "--spec", RESONANT_SPEC], 1),
    ], ids=["extend", "solve-cylinder"])
    def test_elapsed_covers_the_computation(self, tmp_path, capsys, argv, code):
        argv = with_spec(tmp_path, argv)
        t0 = time.perf_counter()
        got = run(argv)
        wall = time.perf_counter() - t0
        rep = json.loads(capsys.readouterr().out)
        assert got == code
        assert rep["elapsed"] >= 0.5 * wall


class TestSolverReport:
    @pytest.mark.parametrize("s_range, grid, solver", [
        ([-4, 4], [41, 17], "separable"),
        # |J1| L / 2 = 10 on this window at J1 = 2: past the separable step's bound
        ([-5, 5], [101, 33], "sparse_lu"),
    ])
    def test_solve_cylinder_names_its_linear_solver(self, tmp_path, capsys, s_range, grid, solver):
        params = ({"n": 3, "sigma": 0.5, "alpha": 0.0, "p": 1.8} if solver == "separable"
                  else {"n": 4, "sigma": 0.75, "alpha": 0.0, "p": 5.0 / 3.0})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"params": params, "s_range": s_range, "grid": grid, "perturbation": 0.05}
        ))
        code, rep = run_json(capsys, ["solve-cylinder", "--spec", str(spec)])
        jsonschema.validate(rep, SCHEMA)
        assert code == 0
        res = rep["results"]
        assert res["linear_solver"] == solver
        assert len(res["line_search"]) == res["iterations"]

    def test_energy_names_its_linear_solver(self, capsys):
        argv = ["energy", "--n", "3", "--sigma", "0.5", "--alpha", "0", "--p", "1.8",
                "--s-range=-4,4"]
        code, rep = run_json(capsys, argv + ["--perturbation", "0.05"])
        jsonschema.validate(rep, SCHEMA)
        assert code == 0
        assert rep["results"]["linear_solver"] == "separable"
        assert rep["results"]["line_search"] and all(
            0.0 < lam <= 1.0 for lam in rep["results"]["line_search"])
        # the unperturbed field is the exact extension: no solve, no solver keys
        code, rep = run_json(capsys, argv + ["--grid", "41x17"])
        assert "linear_solver" not in rep["results"]


class TestSolverDivergence:
    def test_resonant_window_reports_named_violation(self, tmp_path, capsys):
        code = run(with_spec(tmp_path, ["solve-cylinder", "--spec", RESONANT_SPEC]))
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert "solver_convergence" in captured.err
        history = rep["results"]["residual_history"]
        assert len(history) == rep["results"]["iterations"] + 1
        assert history[-1] == rep["results"]["residual_norm"] > 1e-8


def without_elapsed(stdout: str) -> list[str]:
    """The lines of a printed report but its "elapsed" one."""
    return [line for line in stdout.splitlines() if not line.startswith('  "elapsed":')]


class TestStartUp:
    def test_import_loads_no_sparse_or_dense_solver(self):
        # only a cylinder solve needs scipy.sparse and scipy.linalg, and it
        # imports them itself
        code = ("import json, sys, hardyhenon, hardyhenon.cli; print(json.dumps(sorted("
                "m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg')))))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_extend_and_unperturbed_energy_load_no_scipy(self):
        # the exact profile is a closed form, and neither command solves on
        # the cylinder or evaluates the PV operator
        code = ("import contextlib, io, json, sys\n"
                "from hardyhenon.cli import run\n"
                "q = ['--n', '3', '--sigma', '0.5', '--alpha', '0', '--p', '1.8']\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [run(['extend', *q, '--grid', '9x9']), run(['energy', *q])]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0], []]

    def test_one_parser_serves_every_run(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        classify = ["classify", *QUAD, "2"]
        assert run(classify) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--n", "3", "--sigma", "abc", "--alpha", "0", "--p", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        path = tmp_path / "field.csv"
        assert run(["extend", *QUAD, "2", "--grid", "9x9", "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text().startswith("r,psi,value\n")
        assert run(classify) == 0
        again = capsys.readouterr()
        assert again.err == first.err == ""
        assert without_elapsed(again.out) == without_elapsed(first.out)
        assert len(without_elapsed(first.out)) == len(first.out.splitlines()) - 1
