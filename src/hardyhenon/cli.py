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
    _barrier_ladder, exact_extension_field, fowler_map, neumann_flux,
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


def _round_sig(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _clean(obj):
    """Recursive conversion to JSON-safe types with 12-significant-digit floats."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _clean(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def serialize_report(report: dict, fmt: str = "json") -> bytes:
    """Deterministic byte encoding of a report; CSV uses the rows payload."""
    if fmt == "json":
        return (json.dumps(_clean(report), indent=2) + "\n").encode()
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
            for k, v in _clean(report["results"]).items():
                writer.writerow([k, v])
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
    """One [x0, x1, value] row per node of a field on a tensor grid."""
    return [
        [float(a), float(b), float(values[i, j])]
        for i, a in enumerate(axis0)
        for j, b in enumerate(axis1)
    ]


def _cmd_classify(args):
    params = _params_from(args)
    results = classify_regime(params).to_dict()
    results["derived"] = dataclasses.asdict(derive_exponents(params))
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


def _parse_grid(token: str) -> tuple[int, int]:
    a, b = token.lower().split("x")
    return int(a), int(b)


def _cmd_extend(args):
    params = _params_from(args)
    n_r, n_psi = _parse_grid(args.grid)
    r_lo, r_hi = (float(t) for t in args.r_range.split(","))
    psi = psi_nodes(CylinderGrid(n_s=n_r, n_psi=n_psi))
    r_grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n_r))
    field = exact_extension_field(params, r_grid, psi)
    beta = derive_exponents(params).beta
    C = singular_constant(params)
    flux = neumann_flux(power_profile(beta, C), 1.0, params)
    # (-Delta)^sigma u = C^p at r = 1, and the flux is kappa_sigma times it
    target = kappa_sigma(params.sigma) * C ** params.p
    results = {
        "columns": ["r", "psi", "value"],
        "rows": _grid_rows(r_grid, psi, field.values),
        "boundary_amplitude": field.values[0, 0] * r_grid[0] ** beta,
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
    s_lo, s_hi = (float(t) for t in args.s_range.split(","))
    n_s, n_psi = _parse_grid(args.grid)
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
        r_grid = np.exp(np.linspace(s_lo, s_hi, n_s))
        field = fowler_map(exact_extension_field(params, r_grid, psi_nodes(grid)))
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
        "mapped_params": dataclasses.asdict(kmap.mapped),
        "equivalences": [{**dataclasses.asdict(c), "agree": c.agree} for c in checks],
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    Each call returns the same parser, shared by every ``run`` in the
    process: callers must not mutate it.  Its ``fn`` defaults, the
    ``_cmd_*`` handlers, are bound when it is first built.
    """
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
    sp.add_argument("--tol-fall", type=float, default=acceptance.FALL_TOL)
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
    sp.add_argument("--tol-flux", type=float, default=1e-4)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_extend)

    sp = sub.add_parser("solve-cylinder", help="nonlinear cylinder solve from a JSON spec")
    sp.add_argument("--spec", required=True,
                    help='JSON file: {"params": {...}, "s_range": [a,b], "grid": [ns,npsi], '
                         '"perturbation": eps}')
    sp.add_argument("--tol-residual", type=float, default=1e-8)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_solve_cylinder)

    sp = sub.add_parser("energy", help="energy trace and monotonicity verdict")
    _add_params(sp)
    sp.add_argument("--s-range", default=f"{_DEFAULT_GRID.s_min:g},{_DEFAULT_GRID.s_max:g}")
    sp.add_argument("--grid", default=f"{_DEFAULT_GRID.n_s}x{_DEFAULT_GRID.n_psi}",
                    help="NSxNPSI")
    sp.add_argument("--perturbation", type=float, default=0.0)
    sp.add_argument("--tol-drift", type=float, default=1e-4)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("barrier", help="barrier identity residual table")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=BARRIER_MU)
    sp.add_argument("--delta", type=float, default=BARRIER_DELTA)
    sp.add_argument("--psi", type=float, default=BARRIER_PSI,
                    help="elevation angle of the stencil")
    sp.add_argument("--h", type=float, default=BARRIER_H)
    sp.add_argument("--t0", type=float, default=BARRIER_T0)
    sp.add_argument("--fd-ratio", type=float, default=BARRIER_FD_RATIO)
    sp.add_argument("--levels", type=int, default=BARRIER_LEVELS,
                    help="refinement levels (at least 2)")
    sp.add_argument("--tol-order", type=float, default=acceptance.BARRIER_ORDER)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_barrier)

    sp = sub.add_parser("kelvin", help="inversion map, equivalences, amplitude invariance")
    _add_params(sp)
    sp.add_argument("--tol-invariance", type=float, default=acceptance.INVARIANCE_TOL)
    sp.set_defaults(fn=_cmd_kelvin)

    sp = sub.add_parser("suite", help="run the full acceptance battery")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_suite)
    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        params, results, tolerances, violations = args.fn(args)
        report = {"command": args.command}
        if params is not None:
            report["params"] = dataclasses.asdict(params)
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
