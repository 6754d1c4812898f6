"""Half-space extension of radial traces and its verification helpers.

The extension of a trace u is the convolution with the Poisson-type kernel
of order 2 sigma; its weighted normal derivative at the boundary recovers
the nonlocal operator.  Points are parametrized by spherical radius and
elevation angle, X = (|X| cos psi, |X| sin psi), and every field here is
cylindrically symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fraclap import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    RadialProfile,
    _INNER_CUTOFF,
    _halving_checked,
    check_Lsigma_membership,
    power_profile,
)
from .params import ProblemParams, derive_exponents
from .quadrature import (
    _hyp2f1_series,
    _power_tail,
    angular_kernel,
    angular_flux_kernel,
    gauss_legendre,
    log_zone_nodes,
    tail_moment_coefficient,
)
from .specialfn import (
    kappa_sigma,
    log_gamma_signed,
    poisson_normalizer,
    singular_constant,
    unit_sphere_area,
)

__all__ = [
    "ExtensionField",
    "FowlerField",
    "SphereProfile",
    "FluxResult",
    "SphereOdeResiduals",
    "BarrierResiduals",
    "poisson_extend_radial",
    "neumann_flux",
    "fowler_map",
    "fowler_unmap",
    "exact_sphere_profile",
    "exact_extension_field",
    "verify_sphere_ode",
    "verify_barrier_identity",
]

@dataclass(frozen=True)
class ExtensionField:
    """Sampled extension values over a (log-spaced radius) x (elevation) grid."""

    r_grid: np.ndarray
    psi_grid: np.ndarray
    values: np.ndarray  # shape (len(r_grid), len(psi_grid))
    params: ProblemParams

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.r_grid), len(self.psi_grid)):
            raise ValueError("values shape does not match the grids")
        if np.any(self.values < 0.0):
            raise ValueError("extension fields must be nonnegative")


@dataclass(frozen=True)
class FowlerField:
    """Cylinder form of an extension field: V(s, psi) = e^{beta s} U(e^s, psi)."""

    s_grid: np.ndarray
    psi_grid: np.ndarray
    values: np.ndarray
    params: ProblemParams


@dataclass(frozen=True)
class SphereProfile:
    """Angular profile of a homogeneous field on the unit upper half-sphere."""

    psi_grid: np.ndarray
    phi: np.ndarray
    boundary_value: float


def _poisson_radial_integral(trace, x, t, n, cfg, kernel):
    """Per point, int_0^R u(rho) rho^{n-1} kernel(rho) d rho with peak-aware zones.

    ``x`` and ``t`` are 1-D arrays of points; R is ``tail_cutoff`` times the
    point's radius.  ``kernel(c0, q, t2)`` maps flat arrays of offsets
    c0 = (x-rho)^2 + t^2, products x*rho and the points' t^2 to the
    sphere-reduced kernel; every zone of every point goes through one call.
    Each point sums its zones in a fixed order: the spike at rho = x (only
    when x > 0.05 |X|), the outer and the inner log zone, then [0, rho0],
    where the asserted inner power law of the trace is used.  Returns the
    sums and R.
    """
    u = trace.evaluate
    L = np.hypot(x, t)
    R = cfg.tail_cutoff * L
    t2 = t * t
    h = 0.5
    spike = x > 0.05 * L
    inner_hi = np.where(spike, x * (1.0 - h), 0.3 * L)
    rho0 = _INNER_CUTOFF * inner_hi

    # zones as (points, rho, weight, jacobian), each of shape (points, nodes)
    xs = x[spike, None]
    d = np.maximum(t[spike, None] / xs, 1e-300)
    zmax = np.arcsinh(h / d)
    xg, wg = gauss_legendre(cfg.nodes_radial)
    z = zmax * xg
    # spike of width ~t at rho = x: sinh clustering on both sides
    zones = [(spike, xs * (1.0 + d * np.sinh(z)), wg, xs * d * np.cosh(z) * zmax)]
    for lo, hi in ((np.where(spike, x * (1.0 + h), inner_hi), R), (rho0, inner_hi)):
        on = hi > lo
        zones.append((on, *log_zone_nodes(lo[on, None], hi[on, None], cfg.nodes_radial), 1.0))

    # one kernel call over every zone; the last len(x) rows are rho = 0, the
    # [0, rho0] piece, where the kernel is constant to O((rho0/L)^2)
    parts = [(np.broadcast_to(x[on, None], rho.shape), np.broadcast_to(t2[on, None], rho.shape), rho)
             for on, rho, *_ in zones]
    parts.append((x, t2, np.zeros_like(x)))
    xf, t2f, rhof = (np.concatenate([a.ravel() for a in col]) for col in zip(*parts))
    k = kernel((xf - rhof) ** 2 + t2f, xf * rhof, t2f)
    total = np.zeros_like(x)
    start = 0
    for on, rho, w, jac in zones:
        kz = k[start:start + rho.size].reshape(rho.shape)
        start += rho.size
        total[on] += np.sum(w * u(rho) * rho ** (n - 1) * kz * jac, axis=1)

    a = trace.inner_exponent
    ua = u(rho0) * rho0 ** a
    total += k[start:] * ua * rho0 ** (n - a) / (n - a)
    return total, R


def poisson_extend_radial(
    trace: RadialProfile,
    point: tuple[float, float],
    n: int,
    sigma: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    convergence_tol: float | None = None,
) -> float:
    """Extension value at (radius, elevation angle); elevation zero is rejected.

    The value converges to the trace as psi -> 0; at psi = 0 itself the trace
    should be used directly.  With ``convergence_tol`` set, the quadrature is
    repeated at half the node counts and disagreement above the tolerance
    raises QuadratureError with the achieved estimate.
    """
    r, psi = point
    if r <= 0.0:
        raise ValueError("the spherical radius must be positive")
    if not 0.0 < psi <= math.pi / 2.0:
        raise ValueError("elevation angle must lie in (0, pi/2]; use the trace at psi = 0")
    if not check_Lsigma_membership(trace, n, sigma):
        raise ValueError("trace is outside the integrability class")
    r_arr, psi_arr = np.array([r], dtype=float), np.array([psi], dtype=float)
    return _halving_checked(
        lambda cf: float(_poisson_values(trace, r_arr, psi_arr, n, sigma, cf)[0]),
        cfg, convergence_tol, f"point {point}",
    )


def _poisson_values(trace, r, psi, n, sigma, cfg) -> np.ndarray:
    """Extension values at the points (r, psi), two 1-D arrays, in one batch."""
    x = r * np.cos(psi)
    t = r * np.sin(psi)
    m = n + 2.0 * sigma
    total, R = _poisson_radial_integral(
        trace, x, t, n, cfg,
        lambda c0, q, t2: angular_kernel(c0, q, n, m, cfg.nodes_angular),
    )

    # power tail beyond R with the second-order far-field kernel moment
    b = trace.outer_exponent
    ub = trace.evaluate(R) * R ** b
    A = tail_moment_coefficient(n, sigma, x * x, t * t)
    total += unit_sphere_area(n) * ub * _power_tail(R, b, sigma, 1.0, A)
    return poisson_normalizer(n, sigma) * t ** (2.0 * sigma) * total


def _weighted_t_derivatives(trace, x, t, n, sigma, cfg) -> np.ndarray:
    """-t^{1-2 sigma} d/dt of the extension at the points (x, t), by differentiating the kernel."""
    t2 = t * t
    total, R = _poisson_radial_integral(
        trace, x, t, n, cfg,
        lambda c0, q, t2: angular_flux_kernel(c0, q, t2, n, sigma, cfg.nodes_angular),
    )

    b = trace.outer_exponent
    ub = trace.evaluate(R) * R ** b
    m = n + 2.0 * sigma
    A = tail_moment_coefficient(n, sigma, x * x, t2)
    total += unit_sphere_area(n) * ub * _power_tail(R, b, sigma, 2.0 * sigma, 2.0 * sigma * A - m * t2)
    return -poisson_normalizer(n, sigma) * total


@dataclass(frozen=True)
class FluxResult:
    """Extrapolated weighted Neumann flux with its sample sequence."""

    value: float
    t_samples: tuple[float, ...]
    flux_samples: tuple[float, ...]
    fit_residual: float


def _power_fit(x: np.ndarray, exponents) -> np.ndarray:
    """Weights W for which W @ f(x) are the coefficients a_j of f ~ sum_j a_j x^{e_j}.

    ``x`` holds the k sample abscissae on its last axis, and leading axes
    batch independent fits; W has shape (..., len(exponents), k).  The fit
    interpolates when k equals the number of exponents and is least squares
    when k is larger.  The columns x^{e_j} are not rescaled.
    """
    M = np.asarray(x, dtype=float)[..., None] ** np.asarray(exponents, dtype=float)
    return np.linalg.inv(M) if M.shape[-2] == M.shape[-1] else np.linalg.pinv(M)


def _extrapolate_t0(t: np.ndarray, samples: np.ndarray, sigma: float) -> tuple[float, float]:
    """Richardson limit t -> 0 of samples carrying t^{2-2 sigma} and t^2 corrections.

    Least squares on [1, t^{2-2s}, t^2] (the t^2 column is dropped when the
    two exponents nearly coincide); returns the constant and the max residual.
    """
    e1 = 2.0 - 2.0 * sigma
    exponents = (0.0, e1, 2.0) if abs(e1 - 2.0) > 0.1 else (0.0, e1)
    coef = _power_fit(t, exponents) @ samples
    return float(coef[0]), float(np.max(np.abs(np.power.outer(t, exponents) @ coef - samples)))


#: Elevations of ``neumann_flux``'s samples, in units of the boundary radius.
_FLUX_T_SEQUENCE = 0.05 * 2.0 ** -np.arange(9.0)


def neumann_flux(
    trace: RadialProfile,
    r: float,
    params: ProblemParams,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> FluxResult:
    """Weighted Neumann flux -lim t^{1-2s} dU/dt at boundary radius r.

    Samples the weighted derivative at t = r _FLUX_T_SEQUENCE and removes the
    known leading corrections t^{2-2s} and t^2 by least squares.  A large fit
    residual signals a non-convergent extrapolation.
    """
    n, sigma = params.n, params.sigma
    t = r * _FLUX_T_SEQUENCE
    samples = _weighted_t_derivatives(trace, np.full_like(t, r), t, n, sigma, cfg)
    value, resid = _extrapolate_t0(t, samples, sigma)
    return FluxResult(
        value=value,
        t_samples=tuple(t),
        flux_samples=tuple(samples),
        fit_residual=resid,
    )


def fowler_map(field: ExtensionField) -> FowlerField:
    """Pass to cylinder variables: V(s, psi) = r^beta U(r, psi), s = ln r."""
    beta = derive_exponents(field.params).beta
    s = np.log(field.r_grid)
    scale = field.r_grid[:, None] ** beta
    return FowlerField(
        s_grid=s, psi_grid=field.psi_grid.copy(), values=field.values * scale,
        params=field.params,
    )


def fowler_unmap(field: FowlerField) -> ExtensionField:
    beta = derive_exponents(field.params).beta
    r = np.exp(field.s_grid)
    scale = r[:, None] ** (-beta)
    return ExtensionField(
        r_grid=r, psi_grid=field.psi_grid.copy(), values=field.values * scale,
        params=field.params,
    )


def _profile_connection(params: ProblemParams) -> tuple[float, float, float, float]:
    """a, b, A and B/A of the profile's connection formula (DLMF 15.10.21).

    With a = beta/2, b = (m - beta)/2 and m = n - 2 sigma,
    F(a, b; n/2; 1 - x) = A F(a, b; 1 - sigma; x) + B x^sigma F(a + sigma, b + sigma; 1 + sigma; x),
    where A = G(sigma) G(n/2) / (G(a + sigma) G(b + sigma)) > 0 and
    B = G(-sigma) G(n/2) / (G(a) G(b)) < 0.
    """
    n, sigma = params.n, params.sigma
    beta = derive_exponents(params).beta
    a, b = beta / 2.0, (n - 2.0 * sigma - beta) / 2.0
    g = [log_gamma_signed(x).log_abs for x in (sigma, -sigma, a, b, a + sigma, b + sigma, n / 2.0)]
    A = math.exp(g[0] + g[6] - g[4] - g[5])
    return a, b, A, -math.exp(g[1] + g[4] + g[5] - g[0] - g[2] - g[3])


#: A point with x = sin^2 psi <= 1/2 is summed in the connection form while
#: its first series exceeds phi / C by at most this factor (the second term
#: is negative, so this bounds the cancellation), and below
#: _PROFILE_X_FLOOR in any case; all others take the direct series.
_PROFILE_CANCELLATION = 8.0
#: Direct series reach at most z = cos^2 psi = 15/16: 300-550 terms for n <= 10.
_PROFILE_X_FLOOR = 1.0 / 16.0


def exact_sphere_profile(params: ProblemParams, psi_grid: np.ndarray) -> SphereProfile:
    """Angular profile of the exact singular solution on the unit half-sphere.

    In x = sin^2 psi the profile equation is hypergeometric, and the
    solution regular at the pole with phi(0) = C is (C/A) F(a, b; n/2; cos^2 psi)
    (``_profile_connection``).  Near the edge it is summed in the connection
    form C [F(a, b; 1 - sigma; x) + (B/A) x^sigma F(a + sigma, b + sigma; 1 + sigma; x)],
    whose two terms have opposite signs; where they cancel by more than
    _PROFILE_CANCELLATION, and wherever x > 1/2, the direct series is summed
    instead, with a cut point z_max = 1 - 2^-k just above its largest argument.
    Every series has positive terms.  The boundary value and every psi = 0
    entry are C.  Angles outside [0, pi/2] raise ValueError.
    """
    psi_grid = np.asarray(psi_grid, dtype=float)
    if not np.all((psi_grid >= 0.0) & (psi_grid <= math.pi / 2.0)):
        raise ValueError("profile angles must lie in [0, pi/2]")
    sigma, C = params.sigma, singular_constant(params)
    a, b, A, B_over_A = _profile_connection(params)
    x = np.sin(psi_grid) ** 2
    edge = np.flatnonzero(x <= 0.5)
    xe = x[edge]
    first = _hyp2f1_series(a, b, 1.0 - sigma, xe, 0.5)
    conn = first + B_over_A * xe ** sigma * _hyp2f1_series(
        a + sigma, b + sigma, 1.0 + sigma, xe, 0.5)
    phi = np.empty_like(psi_grid)
    phi[edge] = C * conn
    direct = x > 0.5
    direct[edge] = (first > _PROFILE_CANCELLATION * conn) & (xe >= _PROFILE_X_FLOOR)
    if direct.any():
        k = min(4, max(1, math.ceil(-math.log2(x[direct].min()))))
        phi[direct] = C / A * _hyp2f1_series(a, b, params.n / 2.0, np.cos(psi_grid[direct]) ** 2,
                                             1.0 - 2.0 ** -k)
    return SphereProfile(psi_grid=psi_grid, phi=phi, boundary_value=C)


def exact_extension_field(
    params: ProblemParams,
    r_grid: np.ndarray,
    psi_grid: np.ndarray,
) -> ExtensionField:
    """Extension of the exact singular solution, built from its homogeneity."""
    profile = exact_sphere_profile(params, psi_grid)
    beta = derive_exponents(params).beta
    r_grid = np.asarray(r_grid, dtype=float)
    values = r_grid[:, None] ** (-beta) * profile.phi[None, :]
    return ExtensionField(
        r_grid=r_grid, psi_grid=np.asarray(psi_grid, float), values=values,
        params=params,
    )


def _profile_quadrature(params: ProblemParams, psi: np.ndarray) -> np.ndarray:
    """The exact solution's extension at (1, psi), psi > 0, by Poisson quadrature
    of its trace: the independent check of ``exact_sphere_profile``."""
    trace = power_profile(derive_exponents(params).beta, singular_constant(params))
    return _poisson_values(trace, np.ones_like(psi), psi, params.n, params.sigma, DEFAULT_CONFIG)


def _three_point_weights(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of d/dpsi and d^2/dpsi^2 at the interior nodes of a nonuniform grid.

    Each is a (len(psi) - 2, 3) array acting on (f[j-1], f[j], f[j+1]); both
    are exact on 1, psi and psi^2.
    """
    W = _power_fit(np.stack([psi[:-2], psi[1:-1], psi[2:]], axis=1) - psi[1:-1, None], (0, 1, 2))
    return W[:, 1], 2.0 * W[:, 2]


def _edge_model(psi: np.ndarray, sigma: float) -> np.ndarray:
    """The 2x3 matrix taking (V0, V1, V2) on psi[:3], psi[0] = 0, to (c, e).

    (c, e) are the coefficients of the local model
    V = V0 + c sin^{2 sigma} psi + e sin^2 psi through the three samples.
    """
    W = _power_fit(np.sin(psi[1:3]), (2.0 * sigma, 2.0))  # acts on (V1 - V0, V2 - V0)
    return np.column_stack([-W.sum(axis=1), W])


def _half_sphere_operator(psi: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Dense psi operator on a grid running from psi = 0 to the pole pi/2.

    Row 0 is the linear part 2 sigma c of the weighted flux (c from the edge
    model); interior rows are the three-point stencil of
    V'' + ((1-2s) cot psi - (n-1) tan psi) V'; the last row is n V_chichi at
    the pole with even reflection across psi = pi/2.
    """
    npsi = len(psi)
    L = np.zeros((npsi, npsi))
    L[0, :3] = 2.0 * sigma * _edge_model(psi, sigma)[0]
    d1, d2 = _three_point_weights(psi)
    tan = np.array([math.tan(x) for x in psi[1:-1]])  # libm; numpy's tan may differ by an ulp
    P = (1.0 - 2.0 * sigma) / tan - (n - 1) * tan
    j = np.arange(1, npsi - 1)[:, None]
    L[j, j + np.arange(-1, 2)] = d2 + P[:, None] * d1
    chi = math.pi / 2.0 - psi[-2]
    L[-1, -2:] = [2.0 * n / chi ** 2, -2.0 * n / chi ** 2]
    return L


#: Nodes of ``verify_sphere_ode``'s interior check: the profile has a
#: sin^{2s} edge at psi = 0, so nodes near the boundary are left out.
_SPHERE_ODE_BAND = (0.15, math.pi / 2.0 - 0.05)


@dataclass(frozen=True)
class SphereOdeResiduals:
    """Residual norms of the homogeneous-profile equation on the half-sphere."""

    interior_max: float
    boundary_rel: float
    interior_band: tuple[float, float]


def verify_sphere_ode(profile: SphereProfile, params: ProblemParams) -> SphereOdeResiduals:
    """Residuals of the angular equation satisfied by the profile, in the
    cylinder solver's own psi operator L (``_half_sphere_operator``).

    Interior: -(L phi) + J2 phi, the three-point stencil of
    -(phi'' + ((1-2s) cot psi - (n-1) tan psi) phi') + J2 phi, in max norm
    over the nodes inside _SPHERE_ODE_BAND.  Boundary: the solver's flux row
    (L phi)[0] = 2 sigma c, c the sin^{2s} coefficient of the edge model
    through the first three nodes, against the nonlinear condition
    -2 sigma c = kappa_sigma phi(0)^p, relative to its right side.  The grid
    must start at psi = 0.
    """
    n, sigma, p = params.n, params.sigma, params.p
    J2 = derive_exponents(params).J2
    psi = profile.psi_grid
    phi = profile.phi
    L_phi = _half_sphere_operator(psi, n, sigma) @ phi
    rows = -L_phi[1:-1] + J2 * phi[1:-1]
    lo, hi = _SPHERE_ODE_BAND
    band = (lo <= psi[1:-1]) & (psi[1:-1] <= hi)
    interior = float(np.max(np.abs(rows[band]), initial=0.0))
    target = kappa_sigma(sigma) * profile.boundary_value ** p
    boundary = abs(L_phi[0] + target) / target
    return SphereOdeResiduals(
        interior_max=interior, boundary_rel=boundary, interior_band=_SPHERE_ODE_BAND
    )


def _barrier(mu: float, delta: float, sigma: float, q, t):
    """Comparison function |X|^{-mu} (1 - delta (t/|X|)^{2 sigma})."""
    X2 = q * q + t * t
    return X2 ** (-mu / 2.0) * (1.0 - delta * (t * t / X2) ** sigma)


#: The barrier check of ``hardyhenon barrier`` and criterion 9: exponent mu,
#: depth delta, stencil elevation psi, refinement levels, and the level-0
#: scales h, t0 and fd_ratio
BARRIER_MU, BARRIER_DELTA, BARRIER_PSI, BARRIER_LEVELS = 0.8, 0.3, 0.5, 3
BARRIER_H, BARRIER_T0, BARRIER_FD_RATIO = 1e-2, 0.05, 0.05


@dataclass(frozen=True)
class BarrierResiduals:
    interior: float
    neumann: float


def verify_barrier_identity(
    mu: float,
    delta: float,
    point: tuple[float, float],
    params: ProblemParams,
    *,
    h: float = BARRIER_H,
    t0: float = BARRIER_T0,
    fd_ratio: float = BARRIER_FD_RATIO,
) -> BarrierResiduals:
    """Finite-difference check of the two closed-form barrier identities.

    ``point`` = (horizontal radius, elevation) locates the interior stencil.
    The interior residual compares the centered-difference weighted
    divergence with its displayed closed form; the Neumann residual compares
    the extrapolated weighted t-derivative at the boundary against
    2 sigma delta |x|^{-2 sigma} times the barrier trace.  Both are second
    order in the respective discretization scales (h; t0 and fd_ratio).
    """
    n, sigma = params.n, params.sigma
    if not 0.0 < mu < n - 2.0 * sigma:
        raise ValueError(f"requires 0 < mu < n - 2*sigma, got mu={mu}")
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"requires 0 <= delta < 1/2, got delta={delta}")
    q, t = point
    if t <= 0.0 or q <= 0.0:
        raise ValueError("the interior stencil point needs positive coordinates")

    def psi_fn(qq, tt):
        return _barrier(mu, delta, sigma, qq, tt)

    hq = h * q
    ht = h * t
    f0 = psi_fn(q, t)
    d2q = (psi_fn(q + hq, t) - 2.0 * f0 + psi_fn(q - hq, t)) / hq ** 2
    d1q = (psi_fn(q + hq, t) - psi_fn(q - hq, t)) / (2.0 * hq)
    d2t = (psi_fn(q, t + ht) - 2.0 * f0 + psi_fn(q, t - ht)) / ht ** 2
    d1t = (psi_fn(q, t + ht) - psi_fn(q, t - ht)) / (2.0 * ht)
    weighted_div = t ** (1.0 - 2.0 * sigma) * (d2q + (n - 1) / q * d1q + d2t) + (
        1.0 - 2.0 * sigma
    ) * t ** (-2.0 * sigma) * d1t

    X2 = q * q + t * t
    rhs = t ** (1.0 - 2.0 * sigma) * X2 ** (-(mu + 2.0) / 2.0) * (
        mu * (n - 2.0 * sigma - mu)
        - delta * (mu + 2.0 * sigma) * (n - mu) * (t * t / X2) ** sigma
    )
    interior = abs(weighted_div + rhs)

    # boundary: -t^{1-2s} dPsi/dt extrapolated to t = 0 at fixed q
    tk = t0 * 2.0 ** (-np.arange(9, dtype=float))
    g = np.array(
        [
            -tt ** (1.0 - 2.0 * sigma)
            * (psi_fn(q, tt * (1.0 + fd_ratio)) - psi_fn(q, tt * (1.0 - fd_ratio)))
            / (2.0 * tt * fd_ratio)
            for tt in tk
        ]
    )
    target = 2.0 * sigma * delta * q ** (-2.0 * sigma) * _barrier(mu, delta, sigma, q, 0.0)
    neumann = abs(_extrapolate_t0(tk, g, sigma)[0] - target)
    return BarrierResiduals(interior=interior, neumann=neumann)


def _barrier_ladder(mu, delta, point, params, levels, h=BARRIER_H, t0=BARRIER_T0,
                    fd_ratio=BARRIER_FD_RATIO):
    """``verify_barrier_identity`` with h, t0 and fd_ratio scaled by 0.5^k, k < levels.

    Returns the interior and the Neumann residuals per level, then the ratios
    of successive levels of each (about 4 at second order).
    """
    res = [verify_barrier_identity(mu, delta, point, params, h=h * f, t0=t0 * f, fd_ratio=fd_ratio * f)
           for f in (0.5 ** k for k in range(levels))]
    interior, neumann = [r.interior for r in res], [r.neumann for r in res]
    ratios_i, ratios_n = ([a / b for a, b in zip(seq, seq[1:])] for seq in (interior, neumann))
    return interior, neumann, ratios_i, ratios_n
