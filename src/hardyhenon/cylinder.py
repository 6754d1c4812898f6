"""Newton solver for the cylinder form of the extension problem.

Unknowns live on a tensor grid (uniform in the axial variable s, graded in
the elevation angle psi).  The interior equation is

    V_ss - J1 V_s - J2 V + V_psipsi + ((1-2 sigma) cot psi - (n-1) tan psi) V_psi = 0,

with the nonlinear weighted flux condition at psi = 0, even symmetry at the
pole psi = pi/2, and Dirichlet data at both axial ends.  The degenerate
boundary row uses the local model V = V0 + c sin^{2 sigma} psi + e sin^2 psi;
the flux condition fixes c against kappa_sigma V0^p.

The operator is separable with constant axial coefficients, and its only
nonlinearity sits in the psi = 0 flux row.  Each Newton step is therefore
solved exactly by fast diagonalization in s (Lynch, Rice & Thomas, Numer.
Math. 6, 1964) with the flux rows folded back through a capacitance matrix
(Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971); sparse LU
takes the steps of grids where that diagonalization is unstable.

scipy (``scipy.sparse``, ``scipy.sparse.linalg``, ``scipy.linalg`` and its
``lapack``) is imported inside ``_assemble_linear``, ``_separable_step`` and
``solve_cylinder_pde``, so ``import hardyhenon`` does not load it: only a
cylinder solve pays for it, at its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .extension import FowlerField, _half_sphere_operator, exact_sphere_profile
from .params import ProblemParams, derive_exponents
from .specialfn import kappa_sigma

if TYPE_CHECKING:
    import scipy.sparse

__all__ = ["CylinderGrid", "CylinderSolveResult", "SolverDivergence", "psi_nodes",
           "solve_cylinder_pde", "solve_end_perturbed"]

# The separable step maps between s-nodes and s-modes through the similarity
# R = diag(r^i), r = sqrt(lo/up) of the axial stencil, so its rounding error
# grows like eps * r^m = eps * exp(|J1| L / 2) on a window of length L with m
# interior rows.  At 1e4 that is about 2e-12 relative; beyond it (|J1| L / 2
# > 9.2) the steps go to sparse LU.
_MAX_SIMILARITY_GROWTH = 1e4


class SolverDivergence(RuntimeError):
    """Newton iteration failed to reach tolerance; carries the residual history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class CylinderGrid:
    """Axial range and node counts of the (s, psi) grid."""

    s_min: float = -4.0
    s_max: float = 4.0
    n_s: int = 161
    n_psi: int = 65

    def __post_init__(self) -> None:
        if self.s_max <= self.s_min:
            raise ValueError("empty axial range")
        if self.n_s < 5 or self.n_psi < 5:
            raise ValueError("grid too small")

    def refined(self) -> "CylinderGrid":
        return replace(self, n_s=2 * (self.n_s - 1) + 1, n_psi=2 * (self.n_psi - 1) + 1)


def psi_nodes(grid: CylinderGrid) -> np.ndarray:
    """Elevation nodes (pi/2) xi^2 on uniform xi, clustered at the boundary psi = 0."""
    xi = np.linspace(0.0, 1.0, grid.n_psi)
    return (math.pi / 2.0) * xi ** 2.0


@dataclass
class CylinderSolveResult:
    field: FowlerField
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0
    projected_negative: bool = False
    linear_solver: str = "sparse_lu"  # "separable" or "sparse_lu"
    line_search: list[float] = field(default_factory=list)  # step length of each iteration


def _axial_stencil(params: ProblemParams, grid: CylinderGrid) -> tuple[float, float, float]:
    """Sub-diagonal, diagonal and super-diagonal of V_ss - J1 V_s - J2 V on the s grid."""
    d = derive_exponents(params)
    ds = (grid.s_max - grid.s_min) / (grid.n_s - 1)
    return (1.0 / ds ** 2 + d.J1 / (2.0 * ds), -2.0 / ds ** 2 - d.J2,
            1.0 / ds ** 2 - d.J1 / (2.0 * ds))


def _assemble_linear(params: ProblemParams, grid: CylinderGrid, psi: np.ndarray):
    """Constant part of the discrete system; the kappa V0^p term stays outside.

    The interior operator is separable, so the matrix is a sum of Kronecker
    products: the axial operator T_s acts on every psi node but the flux row
    (E), the psi operator on every interior axial row (D_int), and the
    Dirichlet end rows are identity rows.
    """
    import scipy.sparse as sp

    n, sigma = params.n, params.sigma
    ns, npsi = grid.n_s, grid.n_psi

    interior = np.ones(ns)
    interior[[0, -1]] = 0.0
    D_int = sp.diags(interior)
    T_s = D_int @ sp.diags(list(_axial_stencil(params, grid)), [-1, 0, 1], shape=(ns, ns))

    E = sp.diags(np.r_[0.0, np.ones(npsi - 1)])  # no axial part on the flux rows
    A = (
        sp.kron(T_s, E)
        + sp.kron(D_int, sp.csr_matrix(_half_sphere_operator(psi, n, sigma)))
        + sp.kron(sp.identity(ns) - D_int, sp.identity(npsi))
    ).tocsr()
    # normalize rows by their diagonal so the residual is measured in solution
    # units; the graded grid otherwise puts ~1/h^2 factors on the first rows
    # and the 1e-8 tolerance would sit below the evaluation roundoff
    diag = A.diagonal()
    scale = 1.0 / np.maximum(np.abs(diag), 1e-30)
    A = sp.diags(scale) @ A
    return A.tocsr(), scale


def _separable_step(params: ProblemParams, grid: CylinderGrid, psi: np.ndarray,
                    A: scipy.sparse.csr_matrix, row_scale: np.ndarray):
    """Exact Newton-step solver for the Jacobian A + diag(d), or None where it is unstable.

    With the Dirichlet rows moved to the right-hand side, the m = n_s - 2
    interior rows of the unscaled system carry T (x) E + I (x) L_psi +
    diag(d) on the flux unknowns, with T the constant tridiagonal axial
    stencil.  T = R Q Lambda Q R^-1 in closed form (Q the orthogonal sine
    matrix, R = diag(r^(i - (m+1)/2))), so s-mode j leaves the psi system
    M_j = lambda_j E + L_psi, banded with one sub- and two super-diagonals
    and factored here once.  The flux terms d couple the modes; the
    capacitance matrix G = R Q diag(g) Q R^-1, with g_j = [M_j^-1]_00, maps
    a flux-row load to the flux values it produces.  A solve is then two
    s-transforms, one banded solve per mode and one dense solve of I + D G.

    The returned ``step(F, d)`` solves (A + diag(row_scale d)) x = -F, with
    d = kappa p V0^(p-1) on the interior flux rows, by one solve and one
    pass of iterative refinement against A, which brings its residual down
    to that of sparse LU.  Returns None when T has no real similarity
    (lo up <= 0), its growth r^m exceeds _MAX_SIMILARITY_GROWTH, or some
    M_j is singular.
    """
    import scipy.linalg as sla
    import scipy.linalg.lapack as lapack

    lo, diag, up = _axial_stencil(params, grid)
    ns, npsi = grid.n_s, grid.n_psi
    m = ns - 2
    if lo * up <= 0.0 or 0.5 * m * abs(math.log(lo / up)) > math.log(_MAX_SIMILARITY_GROWTH):
        return None
    theta = np.arange(1, m + 1) * (math.pi / (m + 1))
    lam = diag + 2.0 * math.sqrt(lo * up) * np.cos(theta)
    Q = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(np.arange(1, m + 1), theta))
    R = math.sqrt(lo / up) ** (np.arange(1, m + 1) - 0.5 * (m + 1))

    # LAPACK band storage of M_j: entry (i, k) sits at row 3 + i - k, the
    # top row is left for the fill-in of partial pivoting
    L = _half_sphere_operator(psi, params.n, params.sigma)
    band = np.zeros((5, npsi))
    for off in range(-1, 3):
        band[3 - off, max(off, 0):npsi + min(off, 0)] = np.diagonal(L, off)
    e0 = np.zeros((npsi, 1))
    e0[0] = 1.0
    factors, Z = [], np.empty((m, npsi))
    for j in range(m):
        ab = band.copy()
        ab[3, 1:] += lam[j]
        lu, piv, info = lapack.dgbtrf(ab, 1, 2)
        if info != 0:
            return None
        factors.append((lu, piv))
        Z[j] = lapack.dgbtrs(lu, 1, 2, e0, piv)[0][:, 0]
    G = (R[:, None] * Q) @ (Z[:, :1] * Q / R[None, :])
    eye = np.eye(m)
    flux_rows = np.arange(1, ns - 1) * npsi

    def solve(rhs, d, capacitance):
        """Solve the unscaled system with the whole-grid right-hand side rhs."""
        out = rhs.reshape(ns, npsi).copy()
        B = out[1:-1].copy()
        B[0, 1:] -= lo * out[0, 1:]
        B[-1, 1:] -= up * out[-1, 1:]
        Y = Q @ (B / R[:, None])
        for j, (lu, piv) in enumerate(factors):
            Y[j] = lapack.dgbtrs(lu, 1, 2, Y[j, :, None], piv)[0][:, 0]
        load = sla.lu_solve(capacitance, d * (R * (Q @ Y[:, 0])))
        Y -= (Q @ (load / R))[:, None] * Z
        out[1:-1] = R[:, None] * (Q @ Y)
        return out.reshape(-1)

    def step(F: np.ndarray, d: np.ndarray) -> np.ndarray:
        capacitance = sla.lu_factor(eye + d[:, None] * G)
        dvec = np.zeros(ns * npsi)
        dvec[flux_rows] = row_scale[flux_rows] * d
        x = solve(-F / row_scale, d, capacitance)
        return x + solve((-F - A @ x - dvec * x) / row_scale, d, capacitance)

    return step


def solve_cylinder_pde(
    params: ProblemParams,
    boundary_left: np.ndarray,
    boundary_right: np.ndarray,
    grid: CylinderGrid = CylinderGrid(),
    initial: np.ndarray | None = None,
    *,
    newton_tol: float = 1e-8,
    max_iterations: int = 40,
) -> CylinderSolveResult:
    """Solve the discrete cylinder problem with Dirichlet data at both axial ends.

    ``boundary_left``/``boundary_right`` give V on the psi nodes at s_min and
    s_max; they must be strictly positive.  The iteration starts from the
    linear interpolation of the end data unless ``initial`` (an (n_s, n_psi)
    array) is supplied.  Divergence raises SolverDivergence with the residual
    history; negative iterates are projected back to a positive floor and
    reported on the result.

    Each Newton step is a damped step along the exact solution of the
    Jacobian system.  That system is solved by fast
    diagonalization in s with a capacitance matrix for the flux rows plus
    one pass of iterative refinement (``_separable_step``; the result's
    ``linear_solver`` reads "separable").  Sparse LU (``spsolve``, "sparse_lu")
    solves it instead when the axial stencil has no real similarity, that
    is when |J1| ds / 2 >= 1, or when the similarity's growth
    r^m ~ exp(|J1| L / 2) on a window of length L exceeds
    _MAX_SIMILARITY_GROWTH = 1e4; on those grids every step is the one
    sparse LU has always taken.  The line search halves the step length
    until the max-norm residual falls and never takes a step that raises
    it: when no length down to 1/1024 lowers the residual, the solve raises
    SolverDivergence naming the stall.

    The linearization around the constant-in-s profile has oscillatory axial
    modes, so particular window lengths are Dirichlet-resonant and leave the
    Newton matrix near-singular (observed near s_max - s_min in [3, 4] for
    the reference subcritical configuration); the iteration then stalls and
    reports divergence.  No window length is safe for every configuration:
    started from the exact profile with 5% end perturbation, the default
    [-4, 4] window diverges for (n, sigma, alpha, p) = (2, 0.3, 0.2, 3.0),
    (3, 0.3, 0, 1.6) and (4, 0.5, 0, 1.5), the first at every length from 5
    to 12.  (4, 0.5, 0, 1.5) stalls at a residual of 2.6e-4 in its third
    iteration; taking a rising step there ends in a field 156% off phi that
    passes the residual test.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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
    separable = _separable_step(params, grid, psi, A, row_scale)

    def residual(vec):
        F = A @ vec - b
        F[flux_rows] += flux_scale * kap * vec[flux_rows] ** p
        return F

    def res_scale(vec):
        return max(1.0, float(np.max(np.abs(vec))))

    projected = False
    history: list[float] = []
    line_search: list[float] = []
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
        if separable is not None:
            step = separable(F, kap * p * np.abs(V[flux_rows]) ** (p - 1.0))
        else:
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
            if nt < norm:
                V, F, norm = trial, Ft, nt
                break
            if lam < 1e-3:
                raise SolverDivergence(
                    f"Newton stalled at iteration {it + 1}: no step length down to 1/1024 "
                    f"lowers the residual {norm:.3e}",
                    history,
                )
            lam *= 0.5
        history.append(norm)
        line_search.append(lam)
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
        linear_solver="sparse_lu" if separable is None else "separable",
        line_search=line_search,
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
