"""Command-line interface with deterministic, machine-readable reports.

Every subcommand prints one JSON RunReport to stdout (numbers rounded to 12
significant digits) and writes any tabular payload as CSV to ``--out``.
Exit status: 0 when all checks pass their tolerances, 1 on a tolerance
violation (the violated check is named), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import suite as acceptance
from .cylinder import CylinderGrid, SolverDivergence, psi_nodes, solve_end_perturbed
from .energy import derivative_identity_check, energy_trace, monotonicity_verdict
from .extension import exact_extension_field, fowler_map, neumann_flux, verify_barrier_identity
from .fraclap import QuadratureConfig, power_profile, verify_fall_identity
from .kelvin import constant_invariance, kelvin_exponent, verify_equivalences
from .params import ParamError, classify_regime, derive_exponents, validate_params
from .specialfn import (
    classical_limit_constant,
    hypersingular_normalizer,
    kappa_sigma,
    lambda_multiplier,
    poisson_normalizer,
    singular_constant,
)

__all__ = ["main", "run", "serialize_report"]


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


def _emit(report: dict, args, violations: list[str]) -> int:
    report["elapsed"] = time.perf_counter() - report.pop("_t0")
    rows = report.get("results", {}).get("rows")
    if getattr(args, "out", None):
        with open(args.out, "wb") as f:
            f.write(serialize_report(report, "csv"))
        if rows is not None:
            # keep stdout light: the table lives in the file
            report["results"] = {
                k: v for k, v in report["results"].items() if k not in ("rows", "columns")
            }
            report["results"]["csv_written_to"] = args.out
    fmt = getattr(args, "format", "json") or "json"
    sys.stdout.write(serialize_report(report, fmt).decode())
    if violations:
        sys.stderr.write("tolerance violations: " + ", ".join(violations) + "\n")
        return 1
    return 0


def _params_from(args):
    return validate_params(args.n, args.sigma, args.alpha, args.p)


def _new_report(command: str, params=None) -> dict:
    rep = {"command": command, "_t0": time.perf_counter()}
    if params is not None:
        rep["params"] = {
            "n": params.n, "sigma": params.sigma, "alpha": params.alpha, "p": params.p,
        }
    return rep


def _emit_divergence(rep: dict, args, exc: SolverDivergence, tolerances: dict) -> int:
    """Report a Newton solve that missed its tolerance as a named violation."""
    rep["results"] = {
        "residual_norm": exc.history[-1],
        "iterations": len(exc.history) - 1,
        "residual_history": exc.history,
        "message": str(exc),
    }
    rep["tolerances"] = tolerances
    return _emit(rep, args, ["solver_convergence"])


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(
        nodes_radial=args.nodes_radial,
        nodes_angular=args.nodes_angular,
    )


def _cmd_classify(args) -> int:
    params = _params_from(args)
    rep = _new_report("classify", params)
    verdict = classify_regime(params)
    rep["results"] = verdict.to_dict()
    rep["results"]["derived"] = dataclasses.asdict(derive_exponents(params))
    rep["tolerances"] = {"threshold_equality": 1e-12}
    return _emit(rep, args, [])


def _cmd_constants(args) -> int:
    params = _params_from(args)
    rep = _new_report("constants", params)
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
    rep["results"] = results
    rep["tolerances"] = {}
    return _emit(rep, args, [])


def _cmd_verify_lemma(args) -> int:
    params = _params_from(args)
    rep = _new_report("verify-lemma", params)
    radii = [float(tok) for tok in args.radii.split(",")]
    cfg = _quad_config(args)
    report = verify_fall_identity(params, radii, cfg)
    rep["results"] = {
        "radii": list(report.radii),
        "per_radius_errors": list(report.per_radius_errors),
        "max_rel_error": report.max_rel_error,
        "multiplier_ratio_drift": report.multiplier_ratio_drift,
    }
    rep["tolerances"] = {"tol_fall": args.tol_fall}
    violations = [] if report.max_rel_error < args.tol_fall else ["fall_identity_max_rel_error"]
    return _emit(rep, args, violations)


def _parse_grid(token: str) -> tuple[int, int]:
    a, b = token.lower().split("x")
    return int(a), int(b)


def _cmd_extend(args) -> int:
    params = _params_from(args)
    rep = _new_report("extend", params)
    n_r, n_psi = _parse_grid(args.grid)
    r_lo, r_hi = (float(t) for t in args.r_range.split(","))
    grid = CylinderGrid(n_s=n_r, n_psi=n_psi)
    psi = psi_nodes(grid)
    r_grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n_r))
    field = exact_extension_field(params, r_grid, psi)
    rows = [
        [float(r), float(ps), float(field.values[i, j])]
        for i, r in enumerate(r_grid)
        for j, ps in enumerate(psi)
    ]
    flux = neumann_flux(
        power_profile(derive_exponents(params).beta, singular_constant(params)), 1.0, params
    )
    rep["results"] = {
        "columns": ["r", "psi", "value"],
        "rows": rows,
        "boundary_amplitude": field.values[0, 0] * r_grid[0] ** derive_exponents(params).beta,
        "neumann_flux_at_r1": flux.value,
        "flux_fit_residual": flux.fit_residual,
    }
    rep["tolerances"] = {"tol_flux_fit": args.tol_flux}
    violations = [] if flux.fit_residual < args.tol_flux else ["neumann_flux_fit_residual"]
    return _emit(rep, args, violations)


def _cmd_solve_cylinder(args) -> int:
    with open(args.spec) as f:
        spec = json.load(f)
    params = validate_params(**spec["params"])
    rep = _new_report("solve-cylinder", params)
    s_range = spec.get("s_range", [-4.0, 4.0])
    n_s, n_psi = spec.get("grid", [161, 65])
    eps = spec.get("perturbation", 0.0)
    grid = CylinderGrid(s_min=s_range[0], s_max=s_range[1], n_s=n_s, n_psi=n_psi)
    try:
        result = solve_end_perturbed(params, eps, grid)
    except SolverDivergence as exc:
        return _emit_divergence(rep, args, exc, {"tol_residual": args.tol_residual})
    rows = [
        [float(s), float(ps), float(result.field.values[i, j])]
        for i, s in enumerate(result.field.s_grid)
        for j, ps in enumerate(result.field.psi_grid)
    ]
    rep["results"] = {
        "columns": ["s", "psi", "value"],
        "rows": rows,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "residual_history": result.residual_history,
        "projected_negative": result.projected_negative,
    }
    rep["tolerances"] = {"tol_residual": args.tol_residual}
    violations = [] if result.residual_norm <= args.tol_residual else ["solver_residual"]
    return _emit(rep, args, violations)


def _cmd_energy(args) -> int:
    params = _params_from(args)
    rep = _new_report("energy", params)
    s_lo, s_hi = (float(t) for t in args.s_range.split(","))
    n_s, n_psi = _parse_grid(args.grid)
    grid = CylinderGrid(s_min=s_lo, s_max=s_hi, n_s=n_s, n_psi=n_psi)
    if args.perturbation != 0.0:
        try:
            field = solve_end_perturbed(params, args.perturbation, grid).field
        except SolverDivergence as exc:
            return _emit_divergence(rep, args, exc, {"tol_drift": args.tol_drift})
    else:
        r_grid = np.exp(np.linspace(s_lo, s_hi, n_s))
        field = fowler_map(exact_extension_field(params, r_grid, psi_nodes(grid)))
    margin = 2.5 * (s_hi - s_lo) / (n_s - 1)
    trace = energy_trace(field, (s_lo + margin, s_hi - margin), params)
    verdict = monotonicity_verdict(trace, budget=args.tol_drift * float(np.max(np.abs(trace.E))))
    mismatch = derivative_identity_check(trace)
    rows = [
        [float(s), float(e), float(df), float(dfd)]
        for s, e, df, dfd in zip(trace.s_values, trace.E, trace.dE_formula, trace.dE_fd)
    ]
    rep["results"] = {
        "columns": ["s", "E", "dE_formula", "dE_fd"],
        "rows": rows,
        "J1": trace.J1,
        "verdict": verdict.value,
        "derivative_identity_mismatch": mismatch,
    }
    rep["tolerances"] = {"tol_drift": args.tol_drift}
    violations = [] if verdict.value != "Violated" else ["monotonicity_direction"]
    return _emit(rep, args, violations)


def _cmd_barrier(args) -> int:
    params = validate_params(args.n, args.sigma, 0.0, 2.0)
    rep = _new_report("barrier", params)
    point = (math.cos(args.psi), math.sin(args.psi))
    levels = []
    for k in range(args.levels):
        f = 0.5 ** k
        res = verify_barrier_identity(
            args.mu, args.delta, point, params,
            h=args.h * f, t0=args.t0 * f, fd_ratio=args.fd_ratio * f,
        )
        levels.append((res.interior, res.neumann))
    rows = [[k, levels[k][0], levels[k][1]] for k in range(args.levels)]
    ratios_i = [levels[k][0] / levels[k + 1][0] for k in range(args.levels - 1)]
    ratios_n = [levels[k][1] / levels[k + 1][1] for k in range(args.levels - 1)]
    rep["results"] = {
        "columns": ["level", "interior_residual", "neumann_residual"],
        "rows": rows,
        "interior_ratios": ratios_i,
        "neumann_ratios": ratios_n,
        "mu": args.mu,
        "delta": args.delta,
    }
    rep["tolerances"] = {"tol_order_ratio": args.tol_order}
    ok = all(r >= args.tol_order for r in ratios_i + ratios_n)
    return _emit(rep, args, [] if ok else ["barrier_residual_decay_order"])


def _cmd_kelvin(args) -> int:
    params = _params_from(args)
    rep = _new_report("kelvin", params)
    kmap = kelvin_exponent(params)
    checks = verify_equivalences(params)
    results = {
        "vartheta": kmap.vartheta,
        "mapped_params": {
            "n": kmap.mapped.n, "sigma": kmap.mapped.sigma,
            "alpha": kmap.mapped.alpha, "p": kmap.mapped.p,
        },
        "equivalences": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "agree": c.agree} for c in checks
        ],
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
    rep["results"] = results
    rep["tolerances"] = {"tol_invariance": args.tol_invariance}
    return _emit(rep, args, violations)


def _cmd_suite(args) -> int:
    rep = _new_report("suite")
    results = acceptance.run_all(echo=lambda line: sys.stderr.write(line + "\n"))
    rep["results"] = {
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    rep["tolerances"] = {"as_stated_per_criterion": True}
    violations = [f"criterion_{r.index}" for r in results if not r.passed]
    return _emit(rep, args, violations)


def _add_params(sp, alpha_p=True):
    sp.add_argument("--n", type=int, required=True, help="space dimension (>= 2)")
    sp.add_argument("--sigma", type=float, required=True, help="fractional order in (0,1)")
    if alpha_p:
        sp.add_argument("--alpha", type=float, required=True, help="weight exponent")
        sp.add_argument("--p", type=float, required=True, help="nonlinearity exponent (> 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardyhenon",
        description="Numerical verification of singular solutions of fractional "
        "Hardy-Henon equations",
    )
    ap.add_argument("--format", choices=["json", "csv"], default="json",
                    help="stdout report format")
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
    sp.add_argument("--tol-fall", type=float, default=1e-6)
    sp.add_argument("--nodes-radial", type=int, default=256)
    sp.add_argument("--nodes-angular", type=int, default=64)
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
    sp.add_argument("--s-range", default="-4,4")
    sp.add_argument("--grid", default="161x65", help="NSxNPSI")
    sp.add_argument("--perturbation", type=float, default=0.0)
    sp.add_argument("--tol-drift", type=float, default=1e-4)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("barrier", help="barrier identity residual table")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=0.8)
    sp.add_argument("--delta", type=float, default=0.3)
    sp.add_argument("--psi", type=float, default=0.5, help="elevation angle of the stencil")
    sp.add_argument("--h", type=float, default=1e-2)
    sp.add_argument("--t0", type=float, default=0.05)
    sp.add_argument("--fd-ratio", type=float, default=0.05)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--tol-order", type=float, default=3.2)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_barrier)

    sp = sub.add_parser("kelvin", help="inversion map, equivalences, amplitude invariance")
    _add_params(sp)
    sp.add_argument("--tol-invariance", type=float, default=1e-12)
    sp.set_defaults(fn=_cmd_kelvin)

    sp = sub.add_parser("suite", help="run the full acceptance battery")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=_cmd_suite)
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
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
