"""Command-line surface: report schema, determinism, exit-status contract."""

import argparse
import collections
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import jsonschema
import numpy as np
import pytest

from hardyhenon import cli, cylinder
from hardyhenon.cli import build_parser, run, serialize_report
from hardyhenon.extension import _flux_rule
from hardyhenon.params import validate_params
from hardyhenon.specialfn import singular_constant

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())


QUAD = ["--n", "3", "--sigma", "0.5", "--alpha", "0", "--p"]
# a length-3.5 window is Dirichlet-resonant for this configuration: Newton
# stalls near a residual of 1e-5
RESONANT = [*QUAD, "1.8", "--s-range=-1.75,1.75", "--grid", "71x33", "--perturbation", "0.05"]
CONVERGING = [*QUAD, "1.8", "--s-range=-4,4", "--grid", "41x17", "--perturbation", "0.05"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _clean(obj):
    """The former report pipeline's first pass: a JSON-safe copy with rounded floats."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _clean(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return cli._round_sig(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def reference_serialize(report: dict, fmt: str = "json") -> bytes:
    """The former ``serialize_report``: ``_clean``, then ``json.dumps(indent=2)``."""
    if fmt == "json":
        return (json.dumps(_clean(report), indent=2) + "\n").encode()
    rows = report["results"].get("rows")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows is not None:
        writer.writerow(report["results"]["columns"])
        for row in rows:
            writer.writerow([cli._round_sig(v) if isinstance(v, float) else v for v in row])
    else:
        writer.writerow(["key", "value"])
        for k, v in _clean(report["results"]).items():
            writer.writerow([k, v])
    return buf.getvalue().encode()


@pytest.fixture
def reference_bytes(monkeypatch):
    """Check each report the CLI writes against ``reference_serialize``.

    ``_emit`` calls ``cli.serialize_report`` by its module name, so the check
    sees every report of a run; the fixture's dict maps each format written
    to the reference bytes of its last report.
    """
    written = {}
    serialize = cli.serialize_report

    def checked(report, fmt="json"):
        got = serialize(report, fmt)
        written[fmt] = reference_serialize(report, fmt)
        assert got == written[fmt]
        return got

    monkeypatch.setattr(cli, "serialize_report", checked)
    return written


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
        "solve-cylinder-converging": ["solve-cylinder", *CONVERGING],
        "solve-cylinder-diverging": ["solve-cylinder", *RESONANT],
    }

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("case", CASES)
    def test_validates_against_shipped_schema(self, tmp_path, capsys, case, out):
        path = tmp_path / "out.csv"
        argv = self.CASES[case] + (["--out", str(path)] if out else [])
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

    # each once switched its check off: NaN compares false, and a negative
    # bound passes every ratio
    @pytest.mark.parametrize("command, flag", [
        (["verify-lemma", *QUAD, "2"], "--tol-fall"),
        (["extend", *QUAD, "1.8", "--grid", "9x9"], "--tol-flux"),
        (["solve-cylinder", *QUAD, "1.8"], "--tol-residual"),
        (["energy", *QUAD, "1.8"], "--tol-drift"),
        (["barrier"], "--tol-order"),
        (["kelvin", *QUAD, "1.8"], "--tol-invariance"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run([*command, f"{flag}={value}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: must be finite and >= 0, got '{value}'" in captured.err

    @pytest.mark.parametrize("p", ["inf", "1"])
    def test_nonlinearity_exponent_must_be_finite_above_one(self, capsys, p):
        # p = inf was once labelled HardySobolevCritical, with J1 NaN
        code = run(["classify", *QUAD, p])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"parameter error: nonlinearity exponent must exceed 1 and be finite: p={float(p)}\n")

    # the library function that owns an input refuses it by its keyword, and
    # ``run`` names the flag; the bounds themselves are tested on the library
    # (``test_extension.py::TestRefusedByKeyword`` and the modules' own
    # tests); the forms LO,HI, NSxNPSI and R1,R2,... are the CLI's own
    REFUSALS = {
        # a subnormal t0 once warned and then blamed t0=0.0, and
        # --fd-ratio 1e-320 warned, printed NaN ratios and exited 1
        "barrier-t0-subnormal": (["barrier", "--t0", "5e-324"], "--t0"),
        "barrier-t0-inf": (["barrier", "--t0", "inf"], "--t0"),
        "barrier-fd-ratio-subnormal": (["barrier", "--fd-ratio", "1e-320"], "--fd-ratio"),
        "barrier-h-tiny": (["barrier", "--h", "1e-200", "--levels", "2"], "--h"),
        "barrier-levels-one": (["barrier", "--levels", "1"], "--levels"),
        "barrier-levels-underflow": (["barrier", "--levels", "531"], "--levels"),
        "barrier-psi-half-pi": (["barrier", "--psi", "1.5707963267948966"], "--psi"),
        "barrier-mu": (["barrier", "--mu", "5"], "--mu"),
        "barrier-delta": (["barrier", "--delta", "0.7"], "--delta"),
        "verify-lemma-nodes-radial": (["verify-lemma", *QUAD, "1.8", "--nodes-radial", "4"],
                                      "--nodes-radial"),
        "verify-lemma-nodes-angular": (["verify-lemma", *QUAD, "1.8", "--nodes-angular", "4097"],
                                       "--nodes-angular"),
        "verify-lemma-radius-overflow": (["verify-lemma", *QUAD, "1.8", "--radii", "1e300"], "--radii"),
        "verify-lemma-radius-inf": (["verify-lemma", *QUAD, "1.8", "--radii", "inf"], "--radii"),
        "verify-lemma-radii-form": (["verify-lemma", *QUAD, "1.8", "--radii", "1,,2"], "--radii"),
        "verify-lemma-alpha": (["verify-lemma", *QUAD[:4], "--alpha", "1.5", "--p", "2"], "--alpha"),
        "extend-field-overflow": (["extend", *QUAD, "1.8", "--grid", "9x9", "--r-range=1e-300,1e300"],
                                  "--r-range"),
        "extend-r-range-order": (["extend", *QUAD, "1.8", "--grid", "9x9", "--r-range=2,1"], "--r-range"),
        "extend-r-range-form": (["extend", *QUAD, "1.8", "--r-range=1,2,3"], "--r-range"),
        "extend-grid-below-five": (["extend", *QUAD, "1.8", "--grid", "4x9"], "--grid"),
        "extend-grid-form": (["extend", *QUAD, "1.8", "--grid", "9xa"], "--grid"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusal_names_the_flag(self, capsys, case):
        argv, flag = self.REFUSALS[case]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("message, named", [
        ("requires t0 > 0, got t0=nan", "--t0: requires t0 > 0, got t0=nan"),
        ("requires 0 < fd_ratio < 1, got fd_ratio=0.0",
         "--fd-ratio: requires 0 < fd_ratio < 1, got fd_ratio=0.0"),
        ("the closed-form ends overflow a double, got r=1e+300",
         "--radii: the closed-form ends overflow a double, got r=1e+300"),
        ("n_psi must be at least 5, got n_psi=4", "--grid: n_psi must be at least 5, got n_psi=4"),
        ("--grid: must have the form NSxNPSI (two integers), got '9xa'",
         "--grid: must have the form NSxNPSI (two integers), got '9xa'"),
    ], ids=["spelled", "dashed", "table", "table-second-axis", "no-keyword"])
    def test_keyword_is_translated_to_its_flag(self, message, named):
        assert cli._flag_named(ValueError(message)) == named

    def test_every_translated_flag_is_an_option(self):
        options = {opt for sp in cli._parsers()[1].values() for opt in sp._option_string_actions}
        assert set(cli._KEYWORD_FLAGS.values()) <= options

    @pytest.mark.parametrize("r_range", ["1e-240,1e240", "0.25,4"])
    def test_extend_extreme_but_finite_field_is_reported(self, capsys, r_range):
        # r^-beta = 1e300 at the smallest radius and 1e-300 at the largest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(
                capsys, ["extend", *QUAD, "1.8", "--grid", "9x9", f"--r-range={r_range}"])
        jsonschema.validate(rep, SCHEMA)
        assert code == 0
        assert all(math.isfinite(row[2]) for row in rep["results"]["rows"])
        C = singular_constant(validate_params(3, 0.5, 0.0, 1.8))
        assert rep["results"]["boundary_amplitude"] == pytest.approx(C, rel=1e-10)


class TestCylinderProblemFlags:
    """``energy`` and ``solve-cylinder`` read one set of flags and refuse a problem alike."""

    CASES = {
        "grid-below-five": (["--grid", "4x9"], "--grid"),
        "grid-form": (["--grid=81x65x3"], "--grid"),
        "s-range-nan": (["--s-range=nan,1"], "--s-range"),
        "s-range-form": (["--s-range=a,1"], "--s-range"),
        # ds^2 underflowed to 0, which ended in a ZeroDivisionError (exit 1)
        "s-range-step-subnormal": (["--s-range=0,1e-320", "--perturbation", "0.05"], "--s-range"),
        "perturbation-minus-two": (["--perturbation", "-2"], "--perturbation"),
        # NaN end data once passed as a converged solve (exit 0)
        "perturbation-nan": (["--perturbation", "nan"], "--perturbation"),
    }
    COMMANDS = ("energy", "solve-cylinder")

    @staticmethod
    def refusal(capsys, argv):
        """The exit status and stderr of ``argv``, which must print nothing to stdout."""
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("case", CASES)
    def test_refused_alike_and_named(self, capsys, case):
        flags, flag = self.CASES[case]
        refusals = [self.refusal(capsys, [command, *QUAD, "1.8", *flags]) for command in self.COMMANDS]
        assert refusals[0] == refusals[1]
        code, err = refusals[0]
        assert code == 2
        assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_float_dimension_is_refused(self, capsys, command):
        # a JSON spec once took "n": 3.0 and solved it, while energy refused it
        code, err = self.refusal(capsys, [command, "--n=3.0", "--sigma=0.5", "--alpha=0", "--p=1.8"])
        assert code == 2
        assert err.splitlines()[-1] == f"hardyhenon {command}: error: argument --n: invalid int value: '3.0'"

    def test_spec_file_is_an_unrecognized_argument(self, capsys):
        code, err = self.refusal(capsys, ["solve-cylinder", *QUAD, "1.8", "--spec", "spec.json"])
        assert code == 2
        assert err.splitlines()[-1] == "hardyhenon: error: unrecognized arguments: --spec spec.json"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_defaults_are_the_default_grid(self, command):
        args = cli._parsers()[1][command].parse_args([*QUAD, "1.8"])
        assert cli._cylinder_problem(args)[1:] == (cylinder.CylinderGrid(), 0.0)


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


@dataclasses.dataclass(frozen=True)
class _Inner:
    x: float
    label: str


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    values: tuple
    flag: bool


class TestReportWriter:
    """The one-pass writer against the former ``_clean`` + ``json.dumps`` pipeline."""

    CASES = {
        "classify": ["classify", *QUAD, "2"],
        "classify-nonexistence": ["classify", "--n", "3", "--sigma", "0.5", "--alpha", "-1.5", "--p", "2"],
        "constants": ["constants", *QUAD, "1.8"],
        # C overflows a double: a None result and a note
        "constants-overflow": ["constants", "--n", "7", "--sigma", "0.9171138422611018",
                               "--alpha", "-1.8299003669778384", "--p", "1.0012244109248665"],
        "verify-lemma": ["verify-lemma", *QUAD, "2", "--radii", "0.5,1,2"],
        "extend": ["extend", *QUAD, "1.8", "--grid", "9x9"],
        "solve-cylinder-converging": ["solve-cylinder", *CONVERGING],
        "solve-cylinder-diverging": ["solve-cylinder", *RESONANT],
        "energy-exact": ["energy", *QUAD, "2", "--grid", "41x17"],
        "energy-perturbed": ["energy", *QUAD, "1.8", "--grid", "41x17", "--perturbation", "0.05"],
        "barrier": ["barrier"],
        "kelvin": ["kelvin", *QUAD, "1.8"],
        # the CSV bytes of a key-value and of a table report, and their stdout
        "verify-lemma-out": ["verify-lemma", *QUAD, "2", "--radii", "0.5,1,2", "--out"],
        "energy-out": ["energy", *QUAD, "2", "--grid", "41x33", "--s-range=-4,4", "--out"],
        "solve-cylinder-diverging-out": ["solve-cylinder", *RESONANT, "--out"],
        "suite-out": ["suite", "--out"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_report_matches_reference(self, tmp_path, capsys, reference_bytes, case):
        argv = list(self.CASES[case])
        path = tmp_path / "out.csv"
        if argv[-1] == "--out":
            argv.append(str(path))
        run(argv)
        assert capsys.readouterr().out.encode() == reference_bytes["json"]
        if argv[-1] == str(path):
            assert path.read_bytes() == reference_bytes["csv"]

    def test_hand_made_report(self):
        report = {
            "command": "x",
            "results": {
                "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "none": None,
                "f64": np.float64(math.pi), "f32": np.float32(0.1), "i64": np.int64(-7),
                "bool_": np.bool_(True), "bool": False,
                "array": np.array([[1.0, math.nan], [2.5e-300, -0.0]]),
                "ints": np.arange(3), "tuple": (1, 2.000000000000001, "a"),
                "dataclass": _Outer(_Inner(1.0 / 3.0, "ψ"), (math.inf,), True),
                "empty_dict": {}, "empty_list": [], "nested_empty": [[], {}],
                "text": "σ → 0, \"quoted\"\n\ttab", 3: "int key",
            },
            "params": _Inner(1e-320, ""),
            "elapsed": 0.123456789012345,
        }
        assert serialize_report(report) == reference_serialize(report)
        assert serialize_report({}) == reference_serialize({}) == b"{}\n"

    def test_exact_types_and_their_kin(self):
        # the writer tells the exact built-in types apart by type(); numpy
        # scalars (np.float64 is a float) and subclasses take the isinstance path
        class Label(str):
            pass

        report = {
            "f64": np.float64(2.0 / 3.0), "f64_tiny": np.float64(1e-320), "f64_nan": np.float64(math.nan),
            "bool_": [np.bool_(False), np.bool_(True)], "bool_and_int": [True, 1, False, 0],
            "ordered": collections.OrderedDict([("b", 1.0 / 7.0), ("a", [np.int64(2)])]),
            "label": Label("σ"), Label("key"): Label(""),
            "float": 0.1, "int": -3, "none": None,
        }
        assert serialize_report(report) == reference_serialize(report)

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            serialize_report({"results": {1, 2}})


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
        (["solve-cylinder", *RESONANT], 1),
    ], ids=["extend", "solve-cylinder"])
    def test_elapsed_covers_the_computation(self, capsys, argv, code):
        # with the flux rule cached by earlier tests, extend's computation is
        # cheaper than serializing its field; time the cold computation
        _flux_rule.cache_clear()
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
        ([-5, 5], [101, 33], "banded_lu"),
    ])
    def test_solve_cylinder_names_its_linear_solver(self, capsys, s_range, grid, solver):
        params = ([*QUAD, "1.8"] if solver == "separable"
                  else ["--n", "4", "--sigma", "0.75", "--alpha", "0", "--p", repr(5.0 / 3.0)])
        code, rep = run_json(capsys, ["solve-cylinder", *params, f"--s-range={s_range[0]},{s_range[1]}",
                                      "--grid", f"{grid[0]}x{grid[1]}", "--perturbation", "0.05"])
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


class TestUnperturbedEnergy:
    def test_wide_axial_range_stays_finite(self, capsys):
        # e^-800 is 0, so the field must not pass through r^-beta phi at
        # r = e^s: it is V = phi at every s
        argv = ["energy", *QUAD, "1.8", "--grid", "41x17", "--s-range=-800,1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, argv)
        jsonschema.validate(rep, SCHEMA)
        assert code == 0
        assert all(math.isfinite(x) for row in rep["results"]["rows"] for x in row)
        assert rep["results"]["verdict"] == "Constant"


class TestSolverDivergence:
    def test_resonant_window_reports_named_violation(self, capsys):
        code = run(["solve-cylinder", *RESONANT])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert "solver_convergence" in captured.err
        history = rep["results"]["residual_history"]
        assert len(history) == rep["results"]["iterations"] + 1
        assert history[-1] == rep["results"]["residual_norm"] > 1e-8

    def test_singular_newton_matrix_reports_named_violation(self, capsys, monkeypatch):
        # a zero pivot in the step's factorization is a failed solve (exit
        # 1), not a usage error (exit 2)
        monkeypatch.setattr(cylinder, "_separable_factor", lambda *_: lambda d: None)
        code = run(["solve-cylinder", *CONVERGING])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert "solver_convergence" in captured.err
        assert rep["results"]["message"] == "Newton matrix is singular at iteration 1"
        assert rep["results"]["iterations"] == 0

    @pytest.mark.parametrize("flags, message", [
        ([*QUAD, "1.8", "--perturbation", "1e308"], "Newton step is not finite at iteration 1"),
        (["--n", "4", "--sigma", "0.75", "--alpha", "0", "--p", repr(5.0 / 3.0), "--s-range=-3,3",
          "--grid", "5x33", "--perturbation", "1e308"],
         "Newton stalled at iteration 1: no step length down to 1/1024 lowers the residual 2.665e+307"),
    ], ids=["separable", "banded_lu"])
    def test_non_finite_step_reports_named_violation(self, capsys, flags, message):
        # finite end data whose step is not: the separable path once printed
        # numpy overflow warnings and exited 2 with the factor's bare
        # ValueError, while the banded path's line search refused the step
        code = run(["solve-cylinder", *flags])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert captured.err == "tolerance violations: solver_convergence\n"
        assert rep["results"]["message"] == message
        assert rep["results"]["iterations"] == 0


def without_elapsed(stdout: str) -> list[str]:
    """The lines of a printed report but its "elapsed" one."""
    return [line for line in stdout.splitlines() if not line.startswith('  "elapsed":')]


class TestStartUp:
    def test_import_loads_no_sparse_or_dense_solver(self):
        # only a cylinder solve needs scipy.linalg, and it imports it itself;
        # nothing needs scipy.sparse, and the sine transforms are numpy's FFT
        code = ("import json, sys, hardyhenon, hardyhenon.cli; print(json.dumps(sorted("
                "m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg', 'scipy.fft')))))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @staticmethod
    def scipy_modules_after(commands):
        """Exit codes of ``run`` on each argv in a fresh interpreter, and the
        scipy modules loaded by then."""
        code = ("import contextlib, io, json, sys\n"
                "from hardyhenon.cli import run\n"
                f"commands = {commands!r}\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [run(argv) for argv in commands]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_extend_and_unperturbed_energy_load_no_scipy(self):
        # the exact profile is a closed form, and neither command solves on
        # the cylinder or evaluates the PV operator
        q = [*QUAD, "1.8"]
        assert self.scipy_modules_after([["extend", *q, "--grid", "9x9"], ["energy", *q]]) == [[0, 0], []]

    def test_separable_solve_loads_no_sparse_module(self):
        # the separable step applies the operator matrix-free and factors
        # with LAPACK; nothing on its path assembles a sparse matrix, and its
        # sine transforms use numpy.fft, which scipy.linalg loads anyway
        # (a fresh scipy.fft import after scipy.linalg took 0.07-0.10 s)
        codes, modules = self.scipy_modules_after([["energy", *QUAD, "1.8", "--perturbation", "0.05"]])
        assert codes == [0]
        assert "scipy.linalg" in modules
        assert [m for m in modules if m.startswith(("scipy.sparse", "scipy.fft"))] == []

    def test_fallback_solve_loads_no_sparse_module(self):
        # |J1| L / 2 = 10 on this window at J1 = 2: the steps go to the
        # banded LU, which LAPACK factors from band storage
        argv = ["solve-cylinder", "--n", "4", "--sigma", "0.75", "--alpha", "0", "--p", repr(5.0 / 3.0),
                "--s-range=-5,5", "--grid", "101x33", "--perturbation", "0.05"]
        codes, modules = self.scipy_modules_after([argv])
        assert codes == [0]
        assert "scipy.linalg" in modules
        assert [m for m in modules if m.startswith("scipy.sparse")] == []

    def test_verify_lemma_loads_no_scipy(self):
        # the PV operator's Gauss-Jacobi rule is built with numpy alone
        argv = ["verify-lemma", *QUAD, "2", "--radii", "0.5,1,2"]
        assert self.scipy_modules_after([argv]) == [[0], []]

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


class TestGridRows:
    @staticmethod
    def comprehension(axis0, axis1, values):
        """The per-entry rows that ``cli._grid_rows`` replaced."""
        return [[float(a), float(b), float(values[i, j])]
                for i, a in enumerate(axis0) for j, b in enumerate(axis1)]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (81, 65)])
    def test_bit_identical_to_the_comprehension(self, shape):
        rng = np.random.default_rng(3)
        axis0, axis1 = rng.normal(size=shape[0]), rng.uniform(0, 1.5, size=shape[1])
        # a transposed (non-contiguous) field with NaN, -0.0 and a subnormal in it
        values = rng.normal(size=shape[::-1]).T * 1e3
        values.flat[[0, -1]] = -0.0, 5e-324
        values[0, -1] = math.nan
        got, want = cli._grid_rows(axis0, axis1, values), self.comprehension(axis0, axis1, values)
        assert [[type(x) for x in row] for row in got] == [[float] * 3] * len(want)
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]


def captured_run(capsys, argv):
    """(exit status, stdout but its "elapsed" line, stderr) of ``run(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, without_elapsed(out), err


class TestOneParse:
    """``run`` hands argv to the named subcommand's parser directly."""

    CASES = {
        "empty": [], "-h": ["-h"], "--help": ["--help"], "unknown": ["frobnicate"],
        "bare": ["classify"], "command-help": ["classify", "-h"],
        "trailing-option": ["classify", *QUAD, "2", "--bogus"],
        "stray-positional": ["classify", *QUAD, "2", "stray"],
        "both-leftovers": ["classify", "stray", *QUAD, "2", "--bogus"],
        "bad-number": ["classify", "--n", "3", "--sigma=abc", "--alpha", "0", "--p", "2"],
        "abbreviated": ["classify", "--n", "3", "--sig", "0.5", "--alpha", "0", "--p", "2"],
        "double-dash": ["--", "classify", *QUAD, "2"],
        "too-few-levels": ["barrier", "--levels=1"],
        "valid": ["kelvin", *QUAD, "1.8"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_output_as_the_top_level_parse(self, monkeypatch, capsys, case):
        argv = self.CASES[case]
        routed = captured_run(capsys, argv)
        # with no subcommand to route to, run parses with the top-level parser
        parser = build_parser()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert captured_run(capsys, argv) == routed

    def test_a_valid_run_parses_once(self, monkeypatch, capsys):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(["classify", *QUAD, "2"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "classify"
        assert calls == ["hardyhenon classify"]
