"""Command-line interface with deterministic, machine-readable reports.

Every subcommand prints one JSON RunReport to stdout (numbers rounded to 12
significant digits).  ``--out`` receives the results as CSV: a table moves
there from stdout, other results are written as key-value rows.  Each
``_cmd_*`` returns ``(params, results, tolerances, violations)``; ``run``
times it, argument validation included, and builds and emits the report.
Defaults that the library or the acceptance suite also uses are read from them.
Exit status: 0 when all checks pass their tolerances, 1 on a tolerance
violation (the violated check is named), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import suite as acceptance
from .cylinder import CylinderGrid, SolverDivergence, psi_nodes, solve_end_perturbed
from .energy import derivative_identity_check, energy_trace, monotonicity_verdict
from .extension import (
    BARRIER_DELTA, BARRIER_FD_RATIO, BARRIER_H, BARRIER_LEVELS, BARRIER_MU, BARRIER_PSI, BARRIER_T0,
    FowlerField, _barrier_ladder, exact_extension_field, exact_sphere_profile, neumann_flux,
)
from .fraclap import DEFAULT_CONFIG, QuadratureConfig, power_profile, verify_fall_identity
from .kelvin import constant_invariance, kelvin_exponent, verify_equivalences
from .params import THRESHOLD_TOL, ParamError, classify_regime, derive_exponents, validate_params
from .specialfn import (
    classical_limit_constant,
    hypersingular_normalizer,
    kappa_sigma,
    lambda_multiplier,
    poisson_normalizer,
    singular_constant,
)

__all__ = ["main", "run", "serialize_report"]

_DEFAULT_GRID = CylinderGrid()
_json_str = json.encoder.encode_basestring_ascii


def _round_sig(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _json_float(x: float) -> str:
    """The JSON token of a float rounded by ``_round_sig``; NaN and inf as json.dumps writes them."""
    if math.isfinite(x):
        return repr(_round_sig(x))
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _write_json(obj, parts: list, nl: str) -> None:
    """Append ``obj`` to ``parts`` as ``json.dumps(obj, indent=2)`` writes it, floats rounded.

    ``nl`` is a newline followed by the indent of the line ``obj`` starts on.
    numpy scalars and arrays are written as Python numbers and lists, tuples
    as lists, dataclasses as objects of their fields and keys as ``str(key)``.
    The exact built-in types, nearly every value of a report, are told apart
    by ``type``; the rest (subclasses, ``np.float64`` among them, numpy
    scalars and arrays, tuples and dataclasses) by ``isinstance``.
    """
    kind = type(obj)
    if kind is float:
        parts.append(_json_float(obj))
    elif kind is str:
        parts.append(_json_str(obj))
    elif kind is dict:
        _write_object(obj, parts, nl)
    elif kind is list:
        _write_array(obj, parts, nl)
    elif kind is int:
        parts.append(repr(obj))
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(_json_str(obj))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_json_float(float(obj)))
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(repr(int(obj)))
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, parts, nl)
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), parts, nl)
    elif isinstance(obj, dict):
        _write_object(obj, parts, nl)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write_object({name: getattr(obj, name) for name in _field_names(kind)}, parts, nl)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_array(values, parts: list, nl: str) -> None:
    if not values:
        parts.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for value in values:
        parts.append(sep)
        _write_json(value, parts, inner)
        sep = "," + inner
    parts.append(nl + "]")


def _write_object(obj: dict, parts: list, nl: str) -> None:
    if not obj:
        parts.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in obj.items():
        parts.append(sep + _json_str(str(key)) + ": ")
        _write_json(value, parts, inner)
        sep = "," + inner
    parts.append(nl + "}")


def _rounded(value):
    """A key-value CSV cell with each float in it rounded by ``_round_sig``."""
    if isinstance(value, float):
        return _round_sig(float(value))
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def serialize_report(report: dict, fmt: str = "json") -> bytes:
    """Deterministic byte encoding of a report; CSV uses the rows payload.

    JSON is written in one pass, in the layout of ``json.dumps(indent=2)``.
    """
    if fmt == "json":
        parts = []
        _write_json(report, parts, "\n")
        parts.append("\n")
        return "".join(parts).encode()
    if fmt == "csv":
        rows = report.get("results", {}).get("rows")
        columns = report.get("results", {}).get("columns")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows is not None:
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_round_sig(v) if isinstance(v, float) else v for v in row])
        else:
            writer.writerow(["key", "value"])
            for k, v in report["results"].items():
                writer.writerow([k, _rounded(v)])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def _emit(report: dict, out: str | None, violations: list[str]) -> int:
    rows = report["results"].get("rows")
    if out:
        with open(out, "wb") as f:
            f.write(serialize_report(report, "csv"))
        if rows is not None:
            # keep stdout light: the table lives in the file
            report["results"] = {
                k: v for k, v in report["results"].items() if k not in ("rows", "columns")
            }
            report["results"]["csv_written_to"] = out
    sys.stdout.write(serialize_report(report).decode())
    if violations:
        sys.stderr.write("tolerance violations: " + ", ".join(violations) + "\n")
        return 1
    return 0


def _add_tolerance(sp, flag: str, default: float, what: str) -> None:
    """A ``--tol-*`` flag: NaN or a negative value would switch its check off."""
    def tolerance(token: str) -> float:
        value = float(token)
        if not 0.0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {token!r}")
        return value
    sp.add_argument(flag, type=tolerance, default=default, help=f"{what}; finite, >= 0")


def _params_from(args):
    return validate_params(args.n, args.sigma, args.alpha, args.p)


def _divergence(params, exc: SolverDivergence, tolerances: dict):
    """A Newton solve that missed its tolerance, as a named violation."""
    results = {
        "residual_norm": exc.history[-1],
        "iterations": len(exc.history) - 1,
        "residual_history": exc.history,
        "message": str(exc),
    }
    return params, results, tolerances, ["solver_convergence"]


def _grid_rows(axis0, axis1, values) -> list:
    """One [x0, x1, value] row per node of a field on a tensor grid, x1 running fastest."""
    return np.column_stack(
        (np.repeat(axis0, len(axis1)), np.tile(axis1, len(axis0)), np.ravel(values))).tolist()


def _cmd_classify(args):
    params = _params_from(args)
    results = classify_regime(params).to_dict()
    results["derived"] = derive_exponents(params)
    return params, results, {"threshold_equality": THRESHOLD_TOL}, []


def _cmd_constants(args):
    params = _params_from(args)
    d = derive_exponents(params)
    results = {
        "kappa_sigma": kappa_sigma(params.sigma),
        "c_n_sigma": hypersingular_normalizer(params.n, params.sigma),
        "p_n_sigma": poisson_normalizer(params.n, params.sigma),
        "tau": d.tau,
        "lambda_tau": lambda_multiplier(d.tau, params.n, params.sigma),
    }
    try:
        results["C_p_sigma_alpha"] = singular_constant(params)
    except ValueError as exc:
        results["C_p_sigma_alpha"] = None
        results["C_note"] = str(exc)
    try:
        results["C0_classical"] = classical_limit_constant(params.n, params.alpha, params.p)
    except ValueError:
        results["C0_classical"] = None
    return params, results, {}, []


def _cmd_verify_lemma(args):
    params = _params_from(args)
    radii = [float(tok) for tok in args.radii.split(",")]
    cfg = QuadratureConfig(nodes_radial=args.nodes_radial, nodes_angular=args.nodes_angular)
    report = verify_fall_identity(params, radii, cfg)
    results = {
        "radii": list(report.radii),
        "per_radius_errors": list(report.per_radius_errors),
        "max_rel_error": report.max_rel_error,
        "multiplier_ratio_drift": report.multiplier_ratio_drift,
    }
    violations = [] if report.max_rel_error < args.tol_fall else ["fall_identity_max_rel_error"]
    return params, results, {"tol_fall": args.tol_fall}, violations


def _parse_pair(token: str, flag: str, form: str, sep: str, kind) -> tuple:
    """The two values of ``flag``, given as two ``kind`` tokens joined by ``sep``."""
    try:
        a, b = token.lower().split(sep)
        return kind(a), kind(b)
    except ValueError:
        raise ValueError(f"{flag} must have the form {form}, got {token!r}") from None


def _cmd_extend(args):
    params = _params_from(args)
    n_r, n_psi = _parse_pair(args.grid, "--grid", "NRxNPSI (two integers)", "x", int)
    r_lo, r_hi = _parse_pair(args.r_range, "--r-range", "LO,HI (two numbers)", ",", float)
    if not 0.0 < r_lo < r_hi < math.inf:
        raise ValueError(f"--r-range needs finite 0 < lo < hi, got {args.r_range!r}")
    psi = psi_nodes(CylinderGrid(n_s=n_r, n_psi=n_psi))
    r_grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n_r))
    beta = derive_exponents(params).beta
    # a finite range can still take r^-beta phi, or the amplitude read back
    # from it, beyond a double: refuse it rather than print Infinity and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        field = exact_extension_field(params, r_grid, psi)
        amplitude = field.values[0, 0] * r_grid[0] ** beta
    if not (np.isfinite(field.values).all() and np.isfinite(amplitude)):
        raise ValueError(
            f"--r-range {args.r_range!r} takes the exact field r^-beta phi beyond a double")
    C = singular_constant(params)
    flux = neumann_flux(power_profile(beta, C), 1.0, params)
    # (-Delta)^sigma u = C^p at r = 1, and the flux is kappa_sigma times it
    target = kappa_sigma(params.sigma) * C ** params.p
    results = {
        "columns": ["r", "psi", "value"],
        "rows": _grid_rows(r_grid, psi, field.values),
        "boundary_amplitude": amplitude,
        "neumann_flux_at_r1": flux.value,
        "neumann_flux_target": target,
        "neumann_flux_rel_error": abs(flux.value - target) / abs(target),
        "flux_fit_residual": flux.fit_residual,
    }
    violations = [] if flux.fit_residual < args.tol_flux else ["neumann_flux_fit_residual"]
    return params, results, {"tol_flux_fit": args.tol_flux}, violations


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _spec_pair(spec: dict, key: str, default: list, kind, what: str) -> list:
    value = spec.get(key, default)
    if not (isinstance(value, list) and len(value) == 2 and all(_is_number(v, kind) for v in value)):
        raise ValueError(f'spec "{key}" must be a list of two {what}, got {value!r}')
    return value


def _cmd_solve_cylinder(args):
    with open(args.spec) as f:
        spec = json.load(f)
    if not isinstance(spec, dict) or not isinstance(spec.get("params"), dict):
        raise ValueError('spec must be a JSON object with a "params" object')
    unknown = sorted(set(spec) - {"params", "s_range", "grid", "perturbation"})
    if unknown:
        # a misspelled key would otherwise fall back to its default unseen
        raise ValueError(f"spec has unknown keys {unknown}")
    raw = spec["params"]
    if set(raw) != {"n", "sigma", "alpha", "p"} or not all(_is_number(v) for v in raw.values()):
        raise ValueError(f'spec "params" must give the numbers n, sigma, alpha and p, got {raw!r}')
    params = validate_params(**raw)
    s_range = _spec_pair(spec, "s_range", [_DEFAULT_GRID.s_min, _DEFAULT_GRID.s_max], (int, float), "numbers")
    n_s, n_psi = _spec_pair(spec, "grid", [_DEFAULT_GRID.n_s, _DEFAULT_GRID.n_psi], int, "integers")
    eps = spec.get("perturbation", 0.0)
    if not _is_number(eps):
        raise ValueError(f'spec "perturbation" must be a number, got {eps!r}')
    grid = CylinderGrid(s_min=s_range[0], s_max=s_range[1], n_s=n_s, n_psi=n_psi)
    tolerances = {"tol_residual": args.tol_residual}
    try:
        result = solve_end_perturbed(params, eps, grid)
    except SolverDivergence as exc:
        return _divergence(params, exc, tolerances)
    field = result.field
    results = {
        "columns": ["s", "psi", "value"],
        "rows": _grid_rows(field.s_grid, field.psi_grid, field.values),
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "residual_history": result.residual_history,
        "projected_negative": result.projected_negative,
        "linear_solver": result.linear_solver,
        "line_search": result.line_search,
    }
    violations = [] if result.residual_norm <= args.tol_residual else ["solver_residual"]
    return params, results, tolerances, violations


def _cmd_energy(args):
    params = _params_from(args)
    s_lo, s_hi = _parse_pair(args.s_range, "--s-range", "LO,HI (two numbers)", ",", float)
    n_s, n_psi = _parse_pair(args.grid, "--grid", "NSxNPSI (two integers)", "x", int)
    grid = CylinderGrid(s_min=s_lo, s_max=s_hi, n_s=n_s, n_psi=n_psi)
    tolerances = {"tol_drift": args.tol_drift}
    solver = {}
    if args.perturbation != 0.0:
        try:
            solved = solve_end_perturbed(params, args.perturbation, grid)
        except SolverDivergence as exc:
            return _divergence(params, exc, tolerances)
        field = solved.field
        solver = {"linear_solver": solved.linear_solver, "line_search": solved.line_search}
    else:
        prof = exact_sphere_profile(params, psi_nodes(grid))
        field = FowlerField(np.linspace(s_lo, s_hi, n_s), prof.psi_grid, np.tile(prof.phi, (n_s, 1)), params)
    margin = 2.5 * (s_hi - s_lo) / (n_s - 1)
    trace = energy_trace(field, (s_lo + margin, s_hi - margin), params)
    verdict = monotonicity_verdict(trace, budget=args.tol_drift * float(np.max(np.abs(trace.E))))
    results = {
        "columns": ["s", "E", "dE_formula", "dE_fd"],
        "rows": [[float(x) for x in row]
                 for row in zip(trace.s_values, trace.E, trace.dE_formula, trace.dE_fd)],
        "J1": trace.J1,
        "verdict": verdict.value,
        "derivative_identity_mismatch": derivative_identity_check(trace),
        **solver,
    }
    violations = [] if verdict.value != "Violated" else ["monotonicity_direction"]
    return params, results, tolerances, violations


def _cmd_barrier(args):
    if args.levels < 2:
        # one level gives no ratio, and an empty ratio list would pass the check
        raise ValueError(f"--levels must be at least 2, got {args.levels}")
    params = validate_params(args.n, args.sigma, 0.0, 2.0)
    point = (math.cos(args.psi), math.sin(args.psi))
    # level k halves the stencil step h min(cos psi, sin psi) k times, and the
    # difference quotients divide by its square: refuse a count whose finest
    # step squares to zero (out-of-range h and psi are named by the ladder)
    finest = args.h * min(point) * 0.5 ** (args.levels - 1)
    if args.h > 0.0 and min(point) > 0.0 and finest * finest == 0.0:
        raise ValueError(
            f"--levels {args.levels} at --h {args.h!r} and --psi {args.psi!r} takes the finest "
            f"stencil step h min(cos psi, sin psi) 0.5^(levels-1) to {finest:.6g}, "
            "whose square underflows a double")
    interior, neumann, ratios_i, ratios_n = _barrier_ladder(
        args.mu, args.delta, point, params, args.levels, h=args.h, t0=args.t0, fd_ratio=args.fd_ratio
    )
    results = {
        "columns": ["level", "interior_residual", "neumann_residual"],
        "rows": [[k, interior[k], neumann[k]] for k in range(args.levels)],
        "interior_ratios": ratios_i,
        "neumann_ratios": ratios_n,
        "mu": args.mu,
        "delta": args.delta,
    }
    ok = all(r >= args.tol_order for r in ratios_i + ratios_n)
    violations = [] if ok else ["barrier_residual_decay_order"]
    return params, results, {"tol_order_ratio": args.tol_order}, violations


def _cmd_kelvin(args):
    params = _params_from(args)
    kmap = kelvin_exponent(params)
    checks = verify_equivalences(params)
    results = {
        "vartheta": kmap.vartheta,
        "mapped_params": kmap.mapped,
        "equivalences": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "agree": c.agree}
                         for c in checks],
    }
    violations = [] if all(c.agree for c in checks) else ["exponent_equivalences"]
    try:
        inv = constant_invariance(params)
        results["constant_invariance_rel"] = inv
        if inv >= args.tol_invariance:
            violations.append("constant_invariance")
    except ValueError as exc:
        results["constant_invariance_rel"] = None
        results["invariance_note"] = str(exc)
    return params, results, {"tol_invariance": args.tol_invariance}, violations


def _cmd_suite(args):
    criteria = acceptance.run_all(echo=lambda line: sys.stderr.write(line + "\n"))
    results = {
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "details": r.details}
            for r in criteria
        ],
        "all_passed": all(r.passed for r in criteria),
    }
    violations = [f"criterion_{r.index}" for r in criteria if not r.passed]
    return None, results, {"as_stated_per_criterion": True}, violations


def _add_params(sp):
    sp.add_argument("--n", type=int, required=True, help="space dimension (>= 2)")
    sp.add_argument("--sigma", type=float, required=True, help="fractional order in (0,1)")
    sp.add_argument("--alpha", type=float, required=True, help="weight exponent")
    sp.add_argument("--p", type=float, required=True, help="nonlinearity exponent (> 1)")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    Each call returns the same parser, shared by every ``run`` in the
    process: callers must not mutate it.  Its ``fn`` defaults, the
    ``_cmd_*`` handlers, are bound when it is first built.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """``build_parser``'s parser and its subparsers by command name."""
    ap = argparse.ArgumentParser(
        prog="hardyhenon",
        description="Numerical verification of singular solutions of fractional "
        "Hardy-Henon equations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="exponent-regime classification")
    _add_params(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("constants", help="all closed-form constants as JSON")
    _add_params(sp)
    sp.set_defaults(fn=_cmd_constants)

    sp = sub.add_parser("verify-lemma", help="singular-solution identity by quadrature")
    _add_params(sp)
    sp.add_argument("--radii", default="0.5,1,2", help="comma list of radii")
    _add_tolerance(sp, "--tol-fall", acceptance.FALL_TOL, "largest relative error of the identity")
    sp.add_argument("--nodes-radial", type=int, default=DEFAULT_CONFIG.nodes_radial)
    sp.add_argument(
        "--nodes-angular", type=int, default=DEFAULT_CONFIG.nodes_angular,
        help="nodes of the angular spike rule, which serves sphere-integral rows with "
        "c0 < q/4; farther rows are summed by their 2F1 series, whatever the count",
    )
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_verify_lemma)

    sp = sub.add_parser("extend", help="extension field of the exact solution as CSV")
    _add_params(sp)
    sp.add_argument("--r-range", default="0.25,4.0")
    sp.add_argument("--grid", default="81x65", help="NRxNPSI")
    _add_tolerance(sp, "--tol-flux", 1e-4, "fit residual of the Neumann flux, passed below it")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_extend)

    sp = sub.add_parser("solve-cylinder", help="nonlinear cylinder solve from a JSON spec")
    sp.add_argument("--spec", required=True,
                    help='JSON file: {"params": {...}, "s_range": [a,b], "grid": [ns,npsi], '
                         '"perturbation": eps}')
    _add_tolerance(sp, "--tol-residual", 1e-8, "largest Newton residual norm")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_solve_cylinder)

    sp = sub.add_parser("energy", help="energy trace and monotonicity verdict")
    _add_params(sp)
    sp.add_argument("--s-range", default=f"{_DEFAULT_GRID.s_min:g},{_DEFAULT_GRID.s_max:g}")
    sp.add_argument("--grid", default=f"{_DEFAULT_GRID.n_s}x{_DEFAULT_GRID.n_psi}",
                    help="NSxNPSI")
    sp.add_argument("--perturbation", type=float, default=0.0)
    _add_tolerance(sp, "--tol-drift", 1e-4, "slope allowed against sign(J1), in units of max |E|")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("barrier", help="barrier identity residual table")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=BARRIER_MU)
    sp.add_argument("--delta", type=float, default=BARRIER_DELTA)
    sp.add_argument("--psi", type=float, default=BARRIER_PSI,
                    help="elevation angle of the stencil")
    sp.add_argument("--h", type=float, default=BARRIER_H,
                    help="interior stencil step relative to the point, in (0, 1)")
    sp.add_argument("--t0", type=float, default=BARRIER_T0,
                    help="largest elevation of the t -> 0 fit, > 0")
    sp.add_argument("--fd-ratio", type=float, default=BARRIER_FD_RATIO,
                    help="relative step of the t-derivative, in (0, 1)")
    sp.add_argument("--levels", type=int, default=BARRIER_LEVELS,
                    help="refinement levels (at least 2)")
    _add_tolerance(sp, "--tol-order", acceptance.BARRIER_ORDER, "smallest decay ratio per level")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_barrier)

    sp = sub.add_parser("kelvin", help="inversion map, equivalences, amplitude invariance")
    _add_params(sp)
    _add_tolerance(sp, "--tol-invariance", acceptance.INVARIANCE_TOL,
                   "amplitude change under inversion, passed below it")
    sp.set_defaults(fn=_cmd_kelvin)

    sp = sub.add_parser("suite", help="run the full acceptance battery")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_suite)
    return ap, sub.choices


def run(argv: list[str] | None = None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names; return the exit status.

    The arguments are parsed once.  When ``argv[0]`` names a subcommand, its
    parser takes the rest, and leftovers are refused as ``parse_args``
    refuses them.  Any other argv (empty, ``-h``, an unknown name, ``--``)
    goes to the top-level parser, which prints its usage or help and exits.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    subparser = commands.get(argv[0]) if argv else None
    if subparser is None:
        args = parser.parse_args(argv)
    else:
        args, extras = subparser.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
        args.command = argv[0]
    t0 = time.perf_counter()
    try:
        params, results, tolerances, violations = args.fn(args)
        report = {"command": args.command}
        if params is not None:
            report["params"] = params
        report.update(results=results, tolerances=tolerances, elapsed=time.perf_counter() - t0)
        return _emit(report, getattr(args, "out", None), violations)
    except ParamError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
