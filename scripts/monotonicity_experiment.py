#!/usr/bin/env python3
"""Solve end-perturbed cylinder problems in the three exponent regimes and
record the energy along the axis.

Writes one CSV per regime (columns s, E, dE_formula, dE_fd) and prints the
monotonicity verdicts.  The subcritical run should be non-decreasing, the
critical one flat, the supercritical one non-increasing.

Usage:
    python scripts/monotonicity_experiment.py [--outdir traces] [--eps 0.05]
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from hardyhenon.cylinder import CylinderGrid, solve_end_perturbed
from hardyhenon.energy import energy_trace, monotonicity_verdict
from hardyhenon.params import derive_exponents, validate_params

REGIMES = {
    "subcritical": (3, 0.5, 0.0, 1.8),
    "critical": (3, 0.5, 0.0, 2.0),
    "supercritical": (3, 0.5, -0.5, 1.6),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="traces")
    ap.add_argument("--eps", type=float, default=0.05)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, tup in REGIMES.items():
        params = validate_params(*tup)
        eps = 0.005 if name == "critical" else args.eps
        grid = CylinderGrid().refined() if name == "critical" else CylinderGrid()
        result = solve_end_perturbed(params, eps, grid)
        trace = energy_trace(result.field, (-3.5, 3.5), params)
        scale = float(np.max(np.abs(trace.E)))
        verdict = monotonicity_verdict(trace, budget=1e-4 * scale)
        drift = float((trace.E.max() - trace.E.min()) / scale)
        J1 = derive_exponents(params).J1
        print(
            f"{name:>14}: J1 = {J1:+.4f}  verdict = {verdict.value:<13} "
            f"drift = {drift:.2e}  solver residual = {result.residual_norm:.1e}"
        )
        path = outdir / f"energy_{name}.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["s", "E", "dE_formula", "dE_fd"])
            for row in zip(trace.s_values, trace.E, trace.dE_formula, trace.dE_fd):
                writer.writerow([f"{v:.12g}" for v in row])
        print(f"               wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
