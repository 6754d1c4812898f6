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
(Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971); on grids
where that diagonalization is unstable, a banded LU with partial pivoting
(LAPACK ``dgbtrf``, solved by ``dgbtrs``) takes the steps.  In s-major
order the system is banded with n_psi sub- and super-diagonals.  Either
path only factors; one Newton step solves with its factors, refines once
and returns no step at an exact zero pivot.  The s-transforms are an
FFT-based orthonormal DST-I (``numpy.fft``; Swarztrauber, SIAM Rev. 19,
1977), and the capacitance matrix is built in closed form as Toeplitz minus
Hankel, so no dense sine matrix is formed.

``_NewtonSystem`` is the discrete problem of one (``ProblemParams``,
``CylinderGrid``), all of it but the end data: the constant part of the
system as one array of row-scaled coefficients, which it applies
matrix-free for every residual and writes into band storage for the banded
LU, the residual, the choice of path and the refined Newton step.  Nothing
of it depends on the end data or on eps, so ``_newton_system`` builds it,
with the separable step's factorization (the s-mode eigenvalues and
similarity, the stacked mode factors, Z, and the capacitance matrix G in
Fortran order with the max |G| of each row), once per (params, grid) and
keeps it in an ``lru_cache`` of 8 entries, least recently used first out,
of about 0.75 MB each on 161x65 and 3.0 MB on 321x129; every solve on that
key shares its read-only arrays.  What d changes is rebuilt at every Newton
step: I + D G and its LU, and the band and its LU.  The banded factor is
made per solve, and so are the separable factor's buffers: the
s-transforms' odd extension, the mode solve's array and the
Fortran-ordered m x m array in which I + D G is formed and factored in
place by LAPACK ``dgetrf``.

scipy is imported inside the functions that use it, so ``import hardyhenon``
does not load it: the first solve loads ``scipy.linalg`` and its
``lapack``.  No sparse-matrix module and no ``scipy.fft`` is used.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .extension import FowlerField, exact_sphere_profile
from .params import ProblemParams, derive_exponents
from .specialfn import kappa_sigma
from .sphere import psi_operator

__all__ = ["CylinderGrid", "CylinderSolveResult", "SolverDivergence", "psi_nodes",
           "solve_cylinder_pde", "solve_end_perturbed"]

# The separable step maps between s-nodes and s-modes through the similarity
# R = diag(r^i), r = sqrt(lo/up) of the axial stencil, so its rounding error
# grows like eps * r^m = eps * exp(|J1| L / 2) on a window of length L with m
# interior rows.  At 1e4 that is about 2e-12 relative; beyond it (|J1| L / 2
# > 9.2) the steps go to the banded LU, whose partial pivoting has no such
# growth.
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
        if not -math.inf < self.s_min < self.s_max < math.inf:
            raise ValueError(
                f"axial range needs finite s_min < s_max, got s_min={self.s_min}, s_max={self.s_max}"
            )
        for name in ("n_s", "n_psi"):
            count = getattr(self, name)
            # a float count fails later inside numpy, and True would count 1 node
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {name}={count!r}")
            if count < 5:
                raise ValueError(f"{name} must be at least 5, got {name}={count}")
        # the axial stencil divides by ds^2: a width, ds^2 or 1/ds^2 beyond a
        # double would switch it off or end in a ZeroDivisionError
        ds = (self.s_max - self.s_min) / (self.n_s - 1)
        if not (ds < math.inf and 0.0 < ds * ds < math.inf and 1.0 / (ds * ds) < math.inf):
            raise ValueError(
                f"axial range must keep the width s_max - s_min, ds^2 and 1/ds^2 finite and positive "
                f"in a double, got s_min={self.s_min}, s_max={self.s_max}, n_s={self.n_s}"
            )

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
    linear_solver: str  # "separable" or "banded_lu"
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0
    projected_negative: bool = False
    line_search: list[float] = field(default_factory=list)  # step length of each iteration


def _axial_stencil(params: ProblemParams, grid: CylinderGrid) -> tuple[float, float, float]:
    """Sub-diagonal, diagonal and super-diagonal of V_ss - J1 V_s - J2 V on the s grid."""
    d = derive_exponents(params)
    ds = (grid.s_max - grid.s_min) / (grid.n_s - 1)
    return (1.0 / ds ** 2 + d.J1 / (2.0 * ds), -2.0 / ds ** 2 - d.J2,
            1.0 / ds ** 2 - d.J1 / (2.0 * ds))


def _mode_solver(L: np.ndarray, lam: np.ndarray):
    """One factorization of the psi systems M_j = L + lam_j E of all s-modes, or None.

    E = diag(0, 1, ..., 1).  The flux row of every M_j is L's, which touches
    y0, y1 and y2 only: it gives y0 = (b0 - L01 y1 - L02 y2) / L00, and
    eliminating y0 from row 1 leaves rows 1.. tridiagonal.  The folded
    systems are stacked block-diagonally, with zero couplings between
    blocks, and factored by one ``dgttrf``.  The returned ``solve(Y)``
    overwrites the (len(lam), n_psi) right-hand sides Y, row j for mode j,
    with the solutions: one ``dgttrs``, then y0 from the flux row.  Returns
    None when L[0, 0] = 0 or the factorization meets a zero pivot.
    """
    import scipy.linalg.lapack as lapack

    if L[0, 0] == 0.0:
        return None
    m, npsi = len(lam), len(L)
    # row 1 after the fold: (L11 + lam - g L01) y1 + (L12 - g L02) y2 = b1 - g b0
    g = L[1, 0] / L[0, 0]
    main = np.diagonal(L)[1:] + lam[:, None]
    main[:, 0] -= g * L[0, 1]
    off = np.zeros((2, m, npsi - 1))  # sub- and super-diagonal of each block, then a zero
    off[0, :, :-1] = np.diagonal(L, -1)[1:]
    off[1, :, :-1] = np.diagonal(L, 1)[1:]
    off[1, :, 0] -= g * L[0, 2]
    *factors, info = lapack.dgttrf(off[0].reshape(-1)[:-1], main.reshape(-1),
                                   off[1].reshape(-1)[:-1])
    if info != 0:
        return None

    def solve(Y: np.ndarray) -> None:
        rhs = Y[:, 1:].copy()
        rhs[:, 0] -= g * Y[:, 0]
        Y[:, 1:] = lapack.dgttrs(*factors, rhs.reshape(-1, 1), overwrite_b=1)[0].reshape(m, npsi - 1)
        Y[:, 0] = (Y[:, 0] - L[0, 1] * Y[:, 1] - L[0, 2] * Y[:, 2]) / L[0, 0]

    return solve


def _dst1(X: np.ndarray, ext: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along axis 0: Q X, Q_jk = sqrt(2/(m+1)) sin(pi j k/(m+1)), j, k = 1..m.

    The real FFT of the odd extension [0, X, 0, -X[::-1]], of period
    2(m+1), is -2i times the sine sums at frequencies 1..m, so the extension
    is built from X scaled by -sqrt(1/(2(m+1))).  Q is symmetric and
    orthogonal, so the transform is its own inverse.  ``ext``, if given, is
    a zeroed (2(m+1),) + X.shape[1:] array that takes the extension: its
    rows 0 and m+1 are never written, so one buffer serves every transform
    of that shape, and X may be its rows 1..m themselves, scaled in place.
    """
    m = len(X)
    if ext is None:
        ext = np.zeros((2 * (m + 1),) + X.shape[1:])
    np.multiply(X, -math.sqrt(0.5 / (m + 1)), out=ext[1:m + 1])
    np.negative(ext[m:0:-1], out=ext[m + 2:])
    return np.fft.rfft(ext, axis=0)[1:m + 1].imag


def _capacitance(g: np.ndarray, R: np.ndarray) -> np.ndarray:
    """G = R Q diag(g) Q R^-1 in closed form, Q the orthonormal DST-I.

    2 sin a sin b = cos(a - b) - cos(a + b), so Q diag(g) Q is Toeplitz
    minus Hankel: entry (i, k) is h(|i - k|) - h(i + k), i, k = 1..m, with
    h(t) = (1/(m+1)) sum_j g_j cos(pi j t/(m+1)), the real FFT of the even
    extension [0, g, 0, g[::-1]] over its period 2(m+1), and h(t) =
    h(2(m+1) - t) beyond t = m + 1.
    """
    m = len(g)
    ext = np.zeros(2 * (m + 1))
    ext[1:m + 1] = g
    ext[m + 2:] = g[::-1]
    h = np.fft.rfft(ext).real / len(ext)  # h(0), ..., h(m + 1)
    h = np.concatenate((h, h[-2:1:-1]))  # on to h(2m)
    windows = np.lib.stride_tricks.sliding_window_view
    G = windows(np.concatenate((h[m - 1:0:-1], h[:m])), m)[:, ::-1] - windows(h[2:], m)
    G *= R[:, None]
    G /= R
    return G


class _SeparableFactors(NamedTuple):
    """The separable step's part that d does not change; every array is read-only."""

    lo: float  # the axial stencil's sub-diagonal
    up: float  # and super-diagonal
    R: np.ndarray  # the similarity diag(r^(i - (m+1)/2)), i = 1..m
    mode_solve: Callable[[np.ndarray], None]  # ``_mode_solver``'s solve
    Z: np.ndarray  # M_j^-1 e_0 of every s-mode j, by rows
    G: np.ndarray  # the capacitance matrix R Q diag(Z[:, 0]) Q R^-1, Fortran-ordered
    G_row_max: np.ndarray  # max_k |G_ik| of every row i


def _separable_factors(params: ProblemParams, grid: CylinderGrid,
                       L: np.ndarray) -> _SeparableFactors | None:
    """The exact Newton step's factorization, or None where it is unstable.

    With the Dirichlet rows moved to the right-hand side, the m = n_s - 2
    interior rows of the unscaled system carry T (x) E + I (x) L +
    diag(d) on the flux unknowns, with T the constant tridiagonal axial
    stencil and L the psi operator.  T = R Q Lambda Q R^-1 in closed form
    (Q the orthonormal DST-I, R = diag(r^(i - (m+1)/2))), so s-mode j
    leaves the psi system M_j = L + lambda_j E.  ``_mode_solver`` folds
    the flux row of every M_j into its row 1 and factors all m of them as
    one stacked tridiagonal system, so a mode-space solve is one
    ``dgttrs``.  The flux terms d couple the modes; the capacitance matrix
    G = R Q diag(g) Q R^-1, with g_j = [M_j^-1]_00, maps a flux-row load to
    the flux values it produces.  ``_capacitance`` builds it in closed form
    from one real FFT of g, in O(m log m + m^2), and Q itself is never
    formed.  None of this depends on d.  Returns None when T has no real
    similarity (lo up <= 0), its growth r^m exceeds
    _MAX_SIMILARITY_GROWTH, L[0, 0] = 0 (the flux row cannot be folded) or
    the stacked factorization meets a zero pivot.
    """
    lo, diag, up = _axial_stencil(params, grid)
    m = grid.n_s - 2
    if lo * up <= 0.0 or 0.5 * m * abs(math.log(lo / up)) > math.log(_MAX_SIMILARITY_GROWTH):
        return None
    theta = np.arange(1, m + 1) * (math.pi / (m + 1))
    lam = diag + 2.0 * math.sqrt(lo * up) * np.cos(theta)
    R = math.sqrt(lo / up) ** (np.arange(1, m + 1) - 0.5 * (m + 1))

    mode_solve = _mode_solver(L, lam)
    if mode_solve is None:
        return None
    Z = np.zeros((m, grid.n_psi))
    Z[:, 0] = 1.0
    mode_solve(Z)
    G = np.asfortranarray(_capacitance(Z[:, 0], R))  # LAPACK's order, so no step transposes it
    G_row_max = np.max(np.abs(G), axis=1)
    for a in (R, Z, G, G_row_max):
        a.flags.writeable = False
    return _SeparableFactors(lo, up, R, mode_solve, Z, G, G_row_max)


def _separable_factor(grid: CylinderGrid, factors: _SeparableFactors, row_scale: np.ndarray):
    """Factorization of the Jacobian A + diag(row_scale d) from ``_separable_factors``.

    ``row_scale`` is the ``_NewtonSystem``'s of the same params and grid.
    Every product with Q is ``_dst1``, a real FFT of length 2(m+1).  A
    solve is two s-transforms of the whole right-hand side, one stacked
    tridiagonal solve, two transforms of a vector and one dense solve of
    I + D G, whose LU, refactored at every step since d changes, is the
    step's only BLAS-backed call.  Built once per Newton solve, the factor
    owns the buffers that all its calls reuse: the odd extension, which
    takes each whole-grid transform's input and the rank-one flux
    correction in place, a contiguous array for the mode solve, and a
    Fortran-ordered m x m array in which I + D G is formed from the cached
    Fortran-ordered G and factored in place by LAPACK ``dgetrf`` (solved by
    ``dgetrs``).  The checks of ``scipy.linalg.lu_factor`` and ``lu_solve``
    that can fail on finite data are kept at O(m) cost: a non-finite d, a d
    whose product with G overflows (|d_i| max_k |G_ik| is not finite) and a
    non-finite load raise ValueError.  The returned ``factor(d)`` gives
    ``solve(rhs)``, the solution of (A + diag(row_scale d)) x = rhs for a
    row-scaled rhs, valid until the next ``factor`` call, or None when the
    LU of I + D G meets an exact zero pivot.
    """
    import scipy.linalg.lapack as lapack

    lo, up, R, mode_solve, Z, G, G_row_max = factors
    ns, npsi = grid.n_s, grid.n_psi
    m = ns - 2
    ext = np.zeros((2 * (m + 1), npsi))
    modes = np.empty((m, npsi))
    coupled = np.empty((m, m), order="F")
    diagonal = coupled.reshape(-1, order="F")[::m + 1]

    def finite(a: np.ndarray) -> None:
        if not np.all(np.isfinite(a)):
            raise ValueError("array must not contain infs or NaNs")

    def factor(d: np.ndarray):
        finite(d * G_row_max)  # I + D G is finite exactly when this is
        np.multiply(d[:, None], G, out=coupled)
        diagonal[:] += 1.0
        _, piv, info = lapack.dgetrf(coupled, overwrite_a=1)  # the LU in place in ``coupled``
        if info != 0:
            return None

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = rhs / row_scale  # the unscaled system's right-hand side, solved in place
            out = x.reshape(ns, npsi)
            B = ext[1:m + 1]  # the transform's input, scaled in place by _dst1
            np.divide(out[1:-1], R[:, None], out=B)
            B[0, 1:] = (out[1, 1:] - lo * out[0, 1:]) / R[0]
            B[-1, 1:] = (out[-2, 1:] - up * out[-1, 1:]) / R[-1]
            np.copyto(modes, _dst1(B, ext))
            mode_solve(modes)
            load = d * (R * _dst1(modes[:, 0]))
            finite(load)
            load = lapack.dgetrs(coupled, piv, load, overwrite_b=1)[0]
            np.multiply(_dst1(load / R)[:, None], Z, out=B)  # the flux correction
            np.subtract(modes, B, out=B)
            np.multiply(R[:, None], _dst1(B, ext), out=out[1:-1])
            return x

        return solve

    return factor


def _banded_factor(grid: CylinderGrid, band):
    """Factorization of the Jacobian by banded LU with partial pivoting.

    ``band`` is ``_NewtonSystem.band``.  The returned ``factor(d)`` writes
    the band afresh, factors it in place by LAPACK ``dgbtrf`` and gives
    ``solve(rhs)``, one ``dgbtrs`` with those factors, or None at an exact
    zero pivot.  No copy of the band is kept between steps, since at
    321x129 one copy is 128 MB.  Pivoting keeps the solve stable on every
    grid, whatever the axial stencil's similarity.
    """
    import scipy.linalg.lapack as lapack

    npsi = grid.n_psi

    def factor(d: np.ndarray):
        lu, piv, info = lapack.dgbtrf(band(d), npsi, npsi, overwrite_ab=1)
        if info != 0:
            return None
        return lambda rhs: lapack.dgbtrs(lu, npsi, npsi, rhs, piv)[0]

    return factor


class _NewtonSystem:
    """The discrete problem of one (params, grid): all of it but the end data.

    ``stencil`` holds the row-scaled coefficients of an interior s-row at
    column offsets 0, -1, 1, 2, -n_psi and n_psi.  The axial stencil acts on
    every psi node but the flux row, the psi operator L (offsets -1 to 2;
    the +2 diagonal is the flux row's third entry) on every interior axial
    row, and the Dirichlet end rows are identity rows.  Each row is divided
    by its diagonal (``row_scale``), so the residual is measured in solution
    units; the graded grid otherwise puts ~1/h^2 factors on the first rows
    and the 1e-8 tolerance would sit below the evaluation roundoff.  The
    kappa V0^p term of the interior flux rows (``flux_rows``, psi = 0 on
    s-row 1 to n_s - 2, all of scale ``flux_scale``) is added by
    ``residual``, and its derivative d = kappa p V0^(p-1) by ``step``.
    ``separable`` is the separable step's factorization, or None, which
    sends the steps to the banded LU.  Every array is read-only.
    """

    def __init__(self, params: ProblemParams, grid: CylinderGrid):
        L = psi_operator(psi_nodes(grid), params.n, params.sigma)
        lo, diag, up = _axial_stencil(params, grid)
        ns, npsi = grid.n_s, grid.n_psi
        main = np.diagonal(L).copy()
        main[1:] += diag  # the axial stencil acts on every psi node but the flux row
        scale = 1.0 / np.maximum(np.abs(main), 1e-30)
        stencil = np.zeros((6, npsi))
        stencil[0] = scale * main
        stencil[1, 1:] = scale[1:] * np.diagonal(L, -1)
        stencil[2, :-1] = scale[:-1] * np.diagonal(L, 1)
        stencil[3, 0] = scale[0] * L[0, 2]
        stencil[4, 1:] = scale[1:] * lo
        stencil[5, 1:] = scale[1:] * up
        row_scale = np.ones((ns, npsi))
        row_scale[1:-1] = scale
        self.grid, self.kappa, self.p = grid, kappa_sigma(params.sigma), params.p
        self.stencil, self.row_scale, self.flux_scale = stencil, row_scale.reshape(-1), scale[0]
        self.flux_rows = np.arange(1, ns - 1) * npsi
        for a in (self.stencil, self.row_scale, self.flux_rows):
            a.flags.writeable = False
        self.separable = _separable_factors(params, grid, L)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The row-scaled constant part of the system times x.

        Each row's products are summed in columns-descending order, the
        order of a CSR matrix assembled from Kronecker products: the energy
        pins of the separable path record that rounding, and the tests'
        Kronecker reference reproduces it exactly.
        """
        main, sub, sup, sup2, lo, up = self.stencil
        V = x.reshape(self.grid.n_s, self.grid.n_psi)
        W = V[1:-1]
        out = np.empty_like(V)
        out[0], out[-1] = V[0], V[-1]  # the Dirichlet end rows are identity rows
        y = out[1:-1]
        y[:, 1:] = up[1:] * V[2:, 1:]
        y[:, 0] = sup2[0] * W[:, 2]
        y[:, :-1] += sup[:-1] * W[:, 1:]
        y += main * W
        y[:, 1:] += sub[1:] * W[:, :-1]
        y[:, 1:] += lo[1:] * V[:-2, 1:]
        return out.reshape(-1)

    def band(self, d: np.ndarray) -> np.ndarray:
        """The Jacobian A + diag(row_scale d), d on the interior flux rows, in fresh band storage.

        The storage is LAPACK ``dgbtrf``'s with kl = ku = n_psi: entry
        (k, k + o) sits in row 2 n_psi - o of a Fortran-ordered
        (3 n_psi + 1, n_s n_psi) array, whose first n_psi rows are the
        pivoting's workspace.
        """
        ns, npsi = self.grid.n_s, self.grid.n_psi
        ab = np.zeros((3 * npsi + 1, ns * npsi), order="F")
        ab[2 * npsi, :npsi] = ab[2 * npsi, -npsi:] = 1.0  # the Dirichlet end rows
        for o, coefficients in zip((0, -1, 1, 2, -npsi, npsi), self.stencil):
            ab[2 * npsi - o, npsi + o:(ns - 1) * npsi + o] = np.tile(coefficients, ns - 2)
        ab[2 * npsi, self.flux_rows] += self.flux_scale * d
        return ab

    def residual(self, V: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The row-scaled residual of the field V with end data ``left`` and ``right``."""
        F = self.apply(V)
        npsi, rows = self.grid.n_psi, self.flux_rows
        F[:npsi] -= left  # the Dirichlet end rows, whose scale is 1
        F[-npsi:] -= right
        F[rows] += self.flux_scale * self.kappa * V[rows] ** self.p
        return F

    def factorization(self):
        """One solve's factor and the name of its path.

        ``_separable_factor``, "separable", where ``separable`` is set, and
        ``_banded_factor``, "banded_lu", elsewhere.  The factor owns its
        buffers, so each solve makes its own.
        """
        if self.separable is None:
            return _banded_factor(self.grid, self.band), "banded_lu"
        return _separable_factor(self.grid, self.separable, self.row_scale), "separable"

    def step(self, factor, F: np.ndarray, V: np.ndarray) -> np.ndarray | None:
        """The Newton step x of the field V, whose residual is F, with ``factor``'s factors.

        x solves (A + diag(row_scale d)) x = -F, with A the matrix ``apply``
        applies and d = kappa p |V0|^(p-1) on the interior flux rows: one
        factorization, one solve and one pass of iterative refinement
        against ``apply`` with the same factors, which brings the residual
        down to that of a direct LU solve.  Where the Jacobian's condition
        number reaches about 1e7 (the refined default grid), the plain
        banded solve missed a twice-refined LU solution by up to 1.9e-9
        relative and the refined step by at most 1.1e-10.  Returns None when
        the factorization meets an exact zero pivot.
        """
        rows = self.flux_rows
        d = self.kappa * self.p * np.abs(V[rows]) ** (self.p - 1.0)
        solve = factor(d)
        if solve is None:
            return None
        minus_F = -F
        x = solve(minus_F)
        r = self.apply(x)
        np.subtract(minus_F, r, out=r)
        r[rows] -= self.flux_scale * d * x[rows]  # diag(row_scale d) x, zero elsewhere
        return x + solve(r)


@lru_cache(maxsize=8)
def _newton_system(params: ProblemParams, grid: CylinderGrid) -> _NewtonSystem:
    """``_NewtonSystem`` of one (params, grid), both frozen and hashable.

    An entry takes about 0.75 MB on 161x65 and 3.0 MB on 321x129, most of
    it the capacitance matrix, Z, the stacked mode factors and row_scale.
    """
    return _NewtonSystem(params, grid)


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
    s_max; they must be finite and strictly positive.  The iteration starts
    from the linear interpolation of the end data unless ``initial`` (a finite
    (n_s, n_psi) array, non-negative at psi = 0 on the interior s nodes,
    where V0^p enters) is supplied.  Divergence, and a residual that is not
    finite, raise SolverDivergence with the residual history; negative
    iterates are projected back to a positive floor and reported on the
    result.

    The discrete problem of a (params, grid), with the separable step's
    factorization, is built at the first solve on it and cached
    (``_newton_system``, 8 entries).  Its ``residual`` (the Newton residual
    and the line search's trials) applies the constant part matrix-free.
    Each Newton step (``_NewtonSystem.step``) is a damped step along the
    exact solution of the Jacobian system, refactored at every step, plus
    one pass of iterative refinement.  Where the axial stencil's similarity
    is real and its growth r^m ~ exp(|J1| L / 2) on a window of length L is
    at most _MAX_SIMILARITY_GROWTH = 1e4, the factors are fast
    diagonalization in s, one stacked tridiagonal factorization of the psi
    systems of all s-modes and the LU of a capacitance matrix for the flux
    rows.  Elsewhere, that is when |J1| ds / 2 >= 1 or the growth exceeds
    1e4, they are a banded LU with partial pivoting on the same
    coefficients.  The result's ``linear_solver`` names the path.  A Newton
    matrix whose factorization meets an exact zero pivot gives no step, and
    the solve raises SolverDivergence naming the singular matrix and the
    iteration; so does a step whose load the separable path finds not
    finite, naming the non-finite step.  The line search halves the step
    length until the max-norm residual falls and never takes a step that
    raises it: when no length down to 1/1024 lowers the residual, the solve
    raises SolverDivergence naming the stall.

    The linearization around the constant-in-s profile has oscillatory axial
    modes, so particular window lengths are Dirichlet-resonant and leave the
    Newton matrix near-singular (observed near s_max - s_min in [3, 4] for
    the reference subcritical configuration).  Not every stall is that: at
    (n, sigma, alpha, p) = (4, 0.5, 0, 1.5), eps = 0.05 (``solve_end_perturbed``)
    and the default grid, Newton from phi stalls at 2.6e-4 in its third
    iteration, yet continuation in eps from phi in steps of 0.001 reaches
    eps = 0.097 on 161x65 (V0 in [0.18, 2.81] phi0 there; 0.098 on 81x33):
    the solution exists, 156% off phi at eps = 0.05 like the field a rising
    step reaches, and damped Newton from phi does not reach it.
    Default-window divergences at sigma != 1/2, such as (2, 0.3, 0.2, 3.0)
    and (3, 0.3, 0, 1.6), converged in 3 iterations with an
    exponent-fitted psi stencil; this operator is not consistent there.
    """
    psi = psi_nodes(grid)
    npsi, ns = grid.n_psi, grid.n_s
    boundary_left = np.asarray(boundary_left, dtype=float)
    boundary_right = np.asarray(boundary_right, dtype=float)
    if boundary_left.shape != (npsi,) or boundary_right.shape != (npsi,):
        raise ValueError("boundary data must match the psi grid")
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (ns, npsi):
            raise ValueError(f"initial must have shape (n_s, n_psi) = {(ns, npsi)}, got {initial.shape}")
    # a NaN passes the positivity test, and then the residual test as well
    for name, data in (("boundary_left", boundary_left), ("boundary_right", boundary_right),
                       ("initial", initial)):
        if data is not None and not np.all(np.isfinite(data)):
            raise ValueError(f"{name} must be finite")
    if np.any(boundary_left <= 0.0) or np.any(boundary_right <= 0.0):
        raise ValueError("boundary data must be strictly positive")
    # V0^p is NaN below 0, and a NaN residual would end the iteration at once
    if initial is not None and np.any(initial[1:-1, 0] < 0.0):
        raise ValueError("initial must be non-negative at psi = 0 on the interior s nodes")

    system = _newton_system(params, grid)
    if initial is None:
        frac = np.linspace(0.0, 1.0, ns)[:, None]
        V = ((1.0 - frac) * boundary_left[None, :] + frac * boundary_right[None, :]).reshape(-1)
    else:
        V = initial.reshape(-1).copy()
    flux_rows = system.flux_rows
    factor, linear_solver = system.factorization()

    projected = False
    history: list[float] = []
    line_search: list[float] = []
    # the loop refuses a non-finite residual or step, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        F = system.residual(V, boundary_left, boundary_right)
        norm = float(np.max(np.abs(F)))
        history.append(norm)
        it = 0
        # a NaN norm fails "<=" and stops below
        while not norm <= newton_tol * max(1.0, float(np.max(np.abs(V)))):
            if not math.isfinite(norm):
                raise SolverDivergence(f"Newton residual is not finite ({norm})", history)
            if it >= max_iterations:
                raise SolverDivergence(
                    f"Newton failed to reach tolerance after {max_iterations} iterations "
                    f"(residual {norm:.3e})",
                    history,
                )
            try:
                direction = system.step(factor, F, V)
            except ValueError as exc:  # the separable factor refuses non-finite data
                raise SolverDivergence(f"Newton step is not finite at iteration {it + 1}",
                                       history) from exc
            if direction is None:
                raise SolverDivergence(f"Newton matrix is singular at iteration {it + 1}", history)
            lam = 1.0
            while True:
                trial = V + direction if lam == 1.0 else V + lam * direction
                if np.any(trial[flux_rows] < 0.0):
                    trial = trial.copy()
                    floor = 1e-10 * max(1.0, float(np.max(trial)))
                    trial[flux_rows] = np.maximum(trial[flux_rows], floor)
                    projected = True
                Ft = system.residual(trial, boundary_left, boundary_right)
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
        linear_solver=linear_solver,
        line_search=line_search,
    )


def solve_end_perturbed(
    params: ProblemParams, eps: float, grid: CylinderGrid
) -> CylinderSolveResult:
    """Cylinder solve from the exact sphere profile phi, perturbed at one end.

    The end data are (1 + eps) phi at s_min and phi at s_max; Newton starts
    from phi at every axial node.  eps must be finite and above -1, so that
    the end data are finite and positive.
    """
    if not -1.0 < eps < math.inf:
        raise ValueError(f"end data (1 + eps) phi need a finite eps > -1, got eps={eps}")
    phi = exact_sphere_profile(params, psi_nodes(grid)).phi
    return solve_cylinder_pde(
        params, (1.0 + eps) * phi, phi, grid, initial=np.tile(phi, (grid.n_s, 1))
    )
