"""Newton solver for the cylinder form of the extension problem.

Unknowns live on a tensor grid (uniform in the axial variable s, graded in
the elevation angle psi).  The interior equation is

    V_ss - J1 V_s - J2 V + V_psipsi + ((1-2s) cot psi - (n-1) tan psi) V_psi = 0,

with the nonlinear weighted flux condition at psi = 0, even symmetry at the
pole psi = pi/2, and Dirichlet data at both axial ends.  The degenerate
boundary row uses the local model V = V0 + c sin^{2 sigma} psi + e sin^2 psi;
the flux condition fixes c against kappa_sigma V0^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .extension import FowlerField, exact_sphere_profile
from .params import ProblemParams, derive_exponents
from .specialfn import kappa_sigma

__all__ = ["CylinderGrid", "CylinderSolveResult", "SolverDivergence", "psi_nodes",
           "solve_cylinder_pde", "solve_end_perturbed"]


class SolverDivergence(RuntimeError):
    """Newton iteration failed to reach tolerance; carries the residual history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class CylinderGrid:
    """Axial range and node counts; ``grading`` clusters psi nodes at the boundary."""

    s_min: float = -4.0
    s_max: float = 4.0
    n_s: int = 161
    n_psi: int = 65
    grading: float = 2.0

    def __post_init__(self) -> None:
        if self.s_max <= self.s_min:
            raise ValueError("empty axial range")
        if self.n_s < 5 or self.n_psi < 5:
            raise ValueError("grid too small")

    def refined(self) -> "CylinderGrid":
        return replace(self, n_s=2 * (self.n_s - 1) + 1, n_psi=2 * (self.n_psi - 1) + 1)


def psi_nodes(grid: CylinderGrid) -> np.ndarray:
    xi = np.linspace(0.0, 1.0, grid.n_psi)
    return (math.pi / 2.0) * xi ** grid.grading


@dataclass
class CylinderSolveResult:
    field: FowlerField
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0
    projected_negative: bool = False


def _assemble_linear(params: ProblemParams, grid: CylinderGrid, psi: np.ndarray):
    """Constant part of the discrete system; the kappa V0^p term stays outside.

    The interior operator is separable, so the matrix is a sum of Kronecker
    products: the axial operator T_s acts on every psi node but the flux row
    (E), the psi operator on every interior axial row (D_int), and the
    Dirichlet end rows are identity rows.
    """
    n, sigma = params.n, params.sigma
    d = derive_exponents(params)
    ns, npsi = grid.n_s, grid.n_psi
    ds = (grid.s_max - grid.s_min) / (ns - 1)

    interior = np.ones(ns)
    interior[[0, -1]] = 0.0
    D_int = sp.diags(interior)
    T_s = D_int @ sp.diags(
        [1.0 / ds ** 2 + d.J1 / (2.0 * ds), -2.0 / ds ** 2 - d.J2, 1.0 / ds ** 2 - d.J1 / (2.0 * ds)],
        [-1, 0, 1],
        shape=(ns, ns),
    )

    L_psi = np.zeros((npsi, npsi))
    # weighted flux row (linear part): 2s * c(V0, V1, V2)
    q = np.sin(psi) ** 2
    w = np.sin(psi) ** (2.0 * sigma)
    W = w[1] * q[2] - w[2] * q[1]
    L_psi[0, :3] = 2.0 * sigma * np.array([q[1] - q[2], q[2], -q[1]]) / W
    # nonuniform three-point stencil of V_psipsi + P(psi) V_psi
    j = np.arange(1, npsi - 1)
    hm = psi[1:-1] - psi[:-2]
    hp = psi[2:] - psi[1:-1]
    tan = np.array([math.tan(x) for x in psi[1:-1]])  # libm; numpy's tan may differ by an ulp
    P = (1.0 - 2.0 * sigma) / tan - (n - 1) * tan
    L_psi[j, j - 1] = 2.0 / (hm * (hm + hp)) - P * hp / (hm * (hm + hp))
    L_psi[j, j] = -2.0 / (hm * hp) + P * (hp - hm) / (hm * hp)
    L_psi[j, j + 1] = 2.0 / (hp * (hm + hp)) + P * hm / (hp * (hm + hp))
    # pole: n * V_chichi with even reflection across psi = pi/2
    chi = math.pi / 2.0 - psi[-2]
    L_psi[-1, -2:] = [2.0 * n / chi ** 2, -2.0 * n / chi ** 2]

    E = sp.diags(np.r_[0.0, np.ones(npsi - 1)])  # no axial part on the flux rows
    A = (
        sp.kron(T_s, E)
        + sp.kron(D_int, sp.csr_matrix(L_psi))
        + sp.kron(sp.identity(ns) - D_int, sp.identity(npsi))
    ).tocsr()
    # normalize rows by their diagonal so the residual is measured in solution
    # units; the graded grid otherwise puts ~1/h^2 factors on the first rows
    # and the 1e-8 tolerance would sit below the evaluation roundoff
    diag = A.diagonal()
    scale = 1.0 / np.maximum(np.abs(diag), 1e-30)
    A = sp.diags(scale) @ A
    return A.tocsr(), scale


def solve_cylinder_pde(
    params: ProblemParams,
    boundary_left: np.ndarray,
    boundary_right: np.ndarray,
    grid: CylinderGrid = CylinderGrid(),
    initial: np.ndarray | None = None,
    *,
    newton_tol: float = 1e-8,
    max_iterations: int = 40,
    damping: float = 0.5,
) -> CylinderSolveResult:
    """Solve the discrete cylinder problem with Dirichlet data at both axial ends.

    ``boundary_left``/``boundary_right`` give V on the psi nodes at s_min and
    s_max; they must be strictly positive.  The iteration starts from the
    linear interpolation of the end data unless ``initial`` (an (n_s, n_psi)
    array) is supplied.  Divergence raises SolverDivergence with the residual
    history; negative iterates are projected back to a positive floor and
    reported on the result.

    The linearization around the constant-in-s profile has oscillatory axial
    modes, so particular window lengths are Dirichlet-resonant and leave the
    Newton matrix near-singular (observed near s_max - s_min in [3, 4] for
    the reference subcritical configuration); the iteration then stalls and
    reports divergence.  No window length is safe for every configuration:
    started from the exact profile with 5% end perturbation, the default
    [-4, 4] window diverges for (n, sigma, alpha, p) = (2, 0.3, 0.2, 3.0),
    (3, 0.3, 0, 1.6) and (4, 0.5, 0, 1.5), the first at every length from 5
    to 12.
    """
    psi = psi_nodes(grid)
    npsi, ns = grid.n_psi, grid.n_s
    boundary_left = np.asarray(boundary_left, dtype=float)
    boundary_right = np.asarray(boundary_right, dtype=float)
    if boundary_left.shape != (npsi,) or boundary_right.shape != (npsi,):
        raise ValueError("boundary data must match the psi grid")
    if np.any(boundary_left <= 0.0) or np.any(boundary_right <= 0.0):
        raise ValueError("boundary data must be strictly positive")

    kap = kappa_sigma(params.sigma)
    p = params.p
    A, row_scale = _assemble_linear(params, grid, psi)

    b = np.zeros(ns * npsi)
    b[:npsi] = boundary_left
    b[(ns - 1) * npsi :] = boundary_right
    b = b * row_scale

    if initial is None:
        frac = np.linspace(0.0, 1.0, ns)[:, None]
        V = ((1.0 - frac) * boundary_left[None, :] + frac * boundary_right[None, :]).reshape(-1)
    else:
        V = np.asarray(initial, dtype=float).reshape(-1).copy()

    flux_rows = np.arange(1, ns - 1) * npsi
    flux_scale = row_scale[flux_rows]

    def residual(vec):
        F = A @ vec - b
        F[flux_rows] += flux_scale * kap * vec[flux_rows] ** p
        return F

    def res_scale(vec):
        return max(1.0, float(np.max(np.abs(vec))))

    projected = False
    history: list[float] = []
    F = residual(V)
    norm = float(np.max(np.abs(F)))
    history.append(norm)
    it = 0
    nn = ns * npsi
    while norm > newton_tol * res_scale(V):
        if it >= max_iterations:
            raise SolverDivergence(
                f"Newton failed to reach tolerance after {max_iterations} iterations "
                f"(residual {norm:.3e})",
                history,
            )
        dvec = np.zeros(nn)
        dvec[flux_rows] = flux_scale * kap * p * np.abs(V[flux_rows]) ** (p - 1.0)
        J = A + sp.diags(dvec)
        step = spla.spsolve(J.tocsr(), -F)
        lam = 1.0
        while True:
            trial = V + lam * step
            if np.any(trial[flux_rows] < 0.0):
                trial = trial.copy()
                floor = 1e-10 * max(1.0, float(np.max(trial)))
                trial[flux_rows] = np.maximum(trial[flux_rows], floor)
                projected = True
            Ft = residual(trial)
            nt = float(np.max(np.abs(Ft)))
            if nt < norm or lam < 1e-3:
                V, F, norm = trial, Ft, nt
                break
            lam *= damping
        history.append(norm)
        it += 1

    field = FowlerField(
        s_grid=np.linspace(grid.s_min, grid.s_max, ns),
        psi_grid=psi,
        values=V.reshape(ns, npsi),
        params=params,
    )
    return CylinderSolveResult(
        field=field,
        residual_norm=norm,
        residual_history=history,
        iterations=it,
        projected_negative=projected,
    )


def solve_end_perturbed(
    params: ProblemParams, eps: float, grid: CylinderGrid
) -> CylinderSolveResult:
    """Cylinder solve from the exact sphere profile phi, perturbed at one end.

    The end data are (1 + eps) phi at s_min and phi at s_max; Newton starts
    from phi at every axial node.
    """
    phi = exact_sphere_profile(params, psi_nodes(grid)).phi
    return solve_cylinder_pde(
        params, (1.0 + eps) * phi, phi, grid, initial=np.tile(phi, (grid.n_s, 1))
    )
