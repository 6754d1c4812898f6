#!/usr/bin/env python3
"""Print one SHA-256 digest per cylinder solve, to check that a change to the
solver leaves its output bit-identical.

Each line digests a solve's field, residual history, line search and linear
solver path, and its energy trace where it has one; a solve that raises
SolverDivergence digests its message and residual history instead.  The
solves are the five of the ``cylinder_energy`` benchmark workload, the two
banded-LU fallback solves pinned in ``tests/test_cylinder.py``, a solve whose
line search projects negative flux values, and a stall.

Usage:
    PYTHONPATH=src python scripts/cylinder_digests.py > digests.txt

Two trees are bit-identical on these solves when their outputs are equal.
The separable path's capacitance LU rounds differently on one and on several
BLAS threads, so compare runs made with the same OPENBLAS_NUM_THREADS.
"""

import argparse
import hashlib
import sys

import numpy as np

from hardyhenon.cylinder import (CylinderGrid, SolverDivergence, psi_nodes, solve_cylinder_pde,
                                 solve_end_perturbed)
from hardyhenon.energy import energy_trace
from hardyhenon.extension import exact_sphere_profile
from hardyhenon.params import validate_params

COR11 = (4, 0.75, 0.0, 5.0 / 3.0)
# the cases of perfbench/workloads.py CylinderEnergy.CASES: (n, sigma, alpha,
# p), eps, refined grid, energy window
ENERGY_CASES = (
    ((3, 0.5, 0.0, 1.8), 0.05, False, (-3.5, 3.5)),
    ((3, 0.5, -0.5, 1.6), 0.05, False, (-3.5, 3.5)),
    ((3, 0.5, 0.0, 2.0), 0.005, False, (-3.0, 3.0)),
    ((3, 0.5, 0.0, 2.0), 0.005, True, (-3.0, 3.0)),
    (COR11, 0.05, False, (-3.5, 3.5)),
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.asarray(part, dtype=float).tobytes())
    return h.hexdigest()


def _solve(solve) -> tuple[list, object]:
    """What to digest of one solve, and its result (None when it diverged)."""
    try:
        res = solve()
    except SolverDivergence as exc:
        return [str(exc), exc.history], None
    return [res.field.values, res.residual_history, res.line_search, res.linear_solver], res


def _end_perturbed(quad, eps, grid):
    return lambda: solve_end_perturbed(validate_params(*quad), eps, grid)


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    for quad, eps, refined, window in ENERGY_CASES:
        grid = CylinderGrid().refined() if refined else CylinderGrid()
        parts, res = _solve(_end_perturbed(quad, eps, grid))
        tr = energy_trace(res.field, window, res.field.params)
        print(f"{_digest(*parts, tr.s_values, tr.E, tr.dE_formula, tr.dE_fd)}  "
              f"energy {quad} eps={eps} {grid.n_s}x{grid.n_psi}")
    for name, grid in (("long_window", CylinderGrid(-5.0, 5.0, 101, 33)),
                       ("coarse_axis", CylinderGrid(-3.0, 3.0, 5, 33))):
        print(f"{_digest(*_solve(_end_perturbed(COR11, 0.05, grid))[0])}  fallback {name}")
    params, grid = validate_params(3, 0.5, 0.0, 1.8), CylinderGrid(-4.0, 4.0, 81, 33)
    phi = exact_sphere_profile(params, psi_nodes(grid)).phi
    parts, _ = _solve(lambda: solve_cylinder_pde(params, 0.01 * phi, phi, grid))
    print(f"{_digest(*parts)}  projected (3, 0.5, 0.0, 1.8) ends 0.01 phi and phi, 81x33")
    parts, _ = _solve(_end_perturbed((4, 0.5, 0.0, 1.5), 0.05, CylinderGrid()))
    print(f"{_digest(*parts)}  stall (4, 0.5, 0.0, 1.5) eps=0.05")
    return 0


if __name__ == "__main__":
    sys.exit(main())
