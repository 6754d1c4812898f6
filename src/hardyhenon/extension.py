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
from functools import lru_cache
from typing import NamedTuple

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
    _hyp2f1_sweep,
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
from .sphere import power_fit, psi_operator

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


class _RadialRule(NamedTuple):
    """A radial rule for a batch of points, kernel rows in its weights."""

    nodes: np.ndarray  # (points, 1 + zones * N): rho0, then each zone's N nodes
    weight: np.ndarray  # (points, zones, N), zero where a zone misses a point
    k0: np.ndarray  # per point, the kernel row at rho = 0


def _radial_rule(x, t, n, cfg, kernel) -> _RadialRule:
    """The rule of int_0^R u(rho) rho^{n-1} kernel(rho) d rho at each point, with peak-aware zones.

    ``x`` and ``t`` are 1-D arrays of points; R is ``tail_cutoff`` times the
    point's radius.  ``kernel(c0, q, t2)`` maps the offsets
    c0 = (x-rho)^2 + t^2, the products x*rho and the points' t^2, which
    broadcast together, to the sphere-reduced kernel.  It is called once per
    zone, on the points the zone reaches, and once for the rows at rho = 0;
    each weight is the node weight times rho^{n-1} times the kernel row.
    The zones are, in summation order, the spike at rho = x (only when
    x > 0.05 |X|), the outer and the inner log zone, N = ``nodes_radial``
    nodes each; [0, rho0] is left to ``_radial_sum``.  A zone that misses a
    point has zero weights there and the nodes |X|, where the trace is
    finite, so ``_radial_sum`` evaluates the trace once per call.  Both
    kernels are homogeneous of degree -n - 2 sigma in (x, t, rho), so the
    rule of the points l (x, t) is this one with nodes l rho (see
    ``_radial_sum``).  The arrays are read-only.
    """
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
    N = cfg.nodes_radial
    xg, wg = gauss_legendre(N)
    z = zmax * xg
    # spike of width ~t at rho = x: sinh clustering on both sides
    zones = [(spike, xs * (1.0 + d * np.sinh(z)), wg, xs * d * np.cosh(z) * zmax)]
    for lo, hi in ((np.where(spike, x * (1.0 + h), inner_hi), R), (rho0, inner_hi)):
        on = hi > lo
        zones.append((on, *log_zone_nodes(lo[on, None], hi[on, None], N), 1.0))

    nodes = np.empty((len(x), 1 + len(zones) * N))
    nodes[:, 1:] = L[:, None]
    nodes[:, 0] = rho0
    weight = np.zeros((len(x), len(zones), N))
    for i, (on, rho, w, jac) in enumerate(zones):
        xz, t2z = x[on, None], t2[on, None]
        k = kernel((xz - rho) ** 2 + t2z, xz * rho, t2z)
        nodes[on, 1 + i * N:1 + (i + 1) * N] = rho
        weight[on, i] = w * rho ** (n - 1) * k * jac
    k0 = kernel(x * x + t2, np.zeros_like(x), t2)
    for a in (nodes, weight, k0):
        a.flags.writeable = False
    return _RadialRule(nodes, weight, k0)


def _radial_sum(trace, rule: _RadialRule, n, sigma, R, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the rule's integral of the trace at the points ``scale`` (x, t),
    and the trace at the tail radii ``R``.

    The trace is evaluated once, on ``scale`` times the rule's nodes with R
    appended.  Each zone is summed over its own nodes, the zone sums are
    added in order, then [0, rho0] is added, where the kernel is constant to
    O((rho0/|X|)^2) and the asserted inner power law of the trace is used.
    """
    u = trace.evaluate(np.concatenate([(scale * rule.nodes).ravel(), R]))
    u_nodes = u[:rule.nodes.size].reshape(rule.nodes.shape)
    spike, outer, inner = np.sum(rule.weight * u_nodes[:, 1:].reshape(rule.weight.shape), axis=2).T
    total = spike + outer + inner
    total *= scale ** (-2.0 * sigma)

    a = trace.inner_exponent
    rho0 = scale * rule.nodes[:, 0]
    ua = u_nodes[:, 0] * rho0 ** a
    total += scale ** (-n - 2.0 * sigma) * rule.k0 * ua * rho0 ** (n - a) / (n - a)
    return total, u[rule.nodes.size:]


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
    if not 0.0 < r < math.inf:
        raise ValueError(f"the spherical radius r must be finite and positive, got r={r}")
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
    rule = _radial_rule(x, t, n, cfg, lambda c0, q, t2: angular_kernel(c0, q, n, m, cfg.nodes_angular))
    R = cfg.tail_cutoff * np.hypot(x, t)
    total, uR = _radial_sum(trace, rule, n, sigma, R)

    # power tail beyond R with the second-order far-field kernel moment
    b = trace.outer_exponent
    ub = uR * R ** b
    A = tail_moment_coefficient(n, sigma, x * x, t * t)
    total += unit_sphere_area(n) * ub * _power_tail(R, b, sigma, 1.0, A)
    return poisson_normalizer(n, sigma) * t ** (2.0 * sigma) * total


#: The t -> 0 fit's sample elevations in units of the largest: 2^-k, k < 9.
_T0_HALVINGS = 2.0 ** -np.arange(9.0)
#: Elevations of ``neumann_flux``'s samples, in units of the boundary radius.
_FLUX_T_SEQUENCE = 0.05 * _T0_HALVINGS


@lru_cache(maxsize=16)
def _flux_rule(n: int, sigma: float, cfg: QuadratureConfig) -> _RadialRule:
    """The rule of ``neumann_flux``'s samples at boundary radius 1,
    the points (1, _FLUX_T_SEQUENCE), with the flux kernel."""
    t = _FLUX_T_SEQUENCE
    return _radial_rule(
        np.ones_like(t), t, n, cfg,
        lambda c0, q, t2: angular_flux_kernel(c0, q, t2, n, sigma, cfg.nodes_angular),
    )


def _weighted_t_derivatives(trace, r, n, sigma, cfg) -> np.ndarray:
    """-t^{1-2 sigma} d/dt of the extension at the points (r, r _FLUX_T_SEQUENCE),
    by differentiating the kernel."""
    t = r * _FLUX_T_SEQUENCE
    t2 = t * t
    R = cfg.tail_cutoff * np.hypot(r, t)
    total, uR = _radial_sum(trace, _flux_rule(n, sigma, cfg), n, sigma, R, r)

    b = trace.outer_exponent
    ub = uR * R ** b
    m = n + 2.0 * sigma
    A = tail_moment_coefficient(n, sigma, r * r, t2)
    total += unit_sphere_area(n) * ub * _power_tail(R, b, sigma, 2.0 * sigma, 2.0 * sigma * A - m * t2)
    return -poisson_normalizer(n, sigma) * total


@dataclass(frozen=True)
class FluxResult:
    """Extrapolated weighted Neumann flux with its sample sequence."""

    value: float
    t_samples: tuple[float, ...]
    flux_samples: tuple[float, ...]
    fit_residual: float


class _T0Fit(NamedTuple):
    W: np.ndarray  # least-squares weights: W @ samples are the coefficients
    M: np.ndarray  # design matrix, one column per power of t


@lru_cache(maxsize=64)
def _t0_fit(sigma: float) -> _T0Fit:
    """The fit of samples at t = _T0_HALVINGS on [1, t^{2-2s}, t^2].

    The t^2 column is dropped when the two exponents nearly coincide.  For
    samples at scale * _T0_HALVINGS the design matrix is M D, D diagonal, and
    pinv(M D) = D^-1 pinv(M): the constant and the residual do not depend on
    the scale, so one fit at unit scale serves every scale.  The arrays are
    read-only.
    """
    e1 = 2.0 - 2.0 * sigma
    exponents = (0.0, e1, 2.0) if abs(e1 - 2.0) > 0.1 else (0.0, e1)
    fit = _T0Fit(power_fit(_T0_HALVINGS, exponents), np.power.outer(_T0_HALVINGS, exponents))
    for a in fit:
        a.flags.writeable = False
    return fit


def _extrapolate_t0(samples: np.ndarray, sigma: float) -> tuple[float, float]:
    """Richardson limit t -> 0 of samples at t = scale * _T0_HALVINGS, any scale > 0,
    carrying t^{2-2 sigma} and t^2 corrections (``_t0_fit``).

    Returns the constant and the max residual of the least-squares fit.
    """
    W, M = _t0_fit(sigma)
    coef = W @ samples
    return float(coef[0]), float(np.max(np.abs(M @ coef - samples)))


def neumann_flux(
    trace: RadialProfile,
    r: float,
    params: ProblemParams,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> FluxResult:
    """Weighted Neumann flux -lim t^{1-2s} dU/dt at boundary radius r.

    Samples the weighted derivative at t = r _FLUX_T_SEQUENCE and removes the
    known leading corrections t^{2-2s} and t^2 by least squares
    (``_extrapolate_t0``).  A large fit residual signals a non-convergent
    extrapolation.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"the boundary radius r must be finite and positive, got r={r}")
    n, sigma = params.n, params.sigma
    samples = _weighted_t_derivatives(trace, r, n, sigma, cfg)
    value, resid = _extrapolate_t0(samples, sigma)
    return FluxResult(
        value=value,
        t_samples=tuple(r * _FLUX_T_SEQUENCE),
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
    _PROFILE_CANCELLATION, and wherever x > 1/2, the direct series is taken
    instead.  All three are summed in one sweep cut at z_max = 1/2, and np.where
    drops their entries past the cut; an edge node taken direct needs a longer cut,
    so then the direct nodes are summed again, cut at 1 - 2^-k just above their
    largest argument.  The boundary value and every psi = 0 entry are C.  Angles
    outside [0, pi/2] and a grid that is not 1-D raise ValueError.
    """
    psi_grid = np.asarray(psi_grid, dtype=float)
    if psi_grid.ndim != 1 or not np.all((psi_grid >= 0.0) & (psi_grid <= math.pi / 2.0)):
        raise ValueError("profile angles must be a 1-D array in [0, pi/2]")
    sigma, C = params.sigma, singular_constant(params)
    a, b, A, B_over_A = _profile_connection(params)
    x, cos2 = np.sin(psi_grid) ** 2, np.cos(psi_grid) ** 2
    rows = ((a, b, 1.0 - sigma), (a + sigma, b + sigma, 1.0 + sigma), (a, b, params.n / 2.0))
    first, second, pole = _hyp2f1_sweep(rows, np.stack([x, x, cos2]), 0.5)
    conn = first + B_over_A * x ** sigma * second
    edge = x <= 0.5
    direct = ~edge | ((first > _PROFILE_CANCELLATION * conn) & (x >= _PROFILE_X_FLOOR))
    phi = np.where(direct, C / A * pole, C * conn)
    if (direct & edge).any():
        k = min(4, max(1, math.ceil(-math.log2(x[direct].min()))))
        phi[direct] = C / A * _hyp2f1_sweep(rows[2:], cos2[direct], 1.0 - 2.0 ** -k)[0]
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
    cylinder solver's own psi operator L (``sphere.psi_operator``).

    Interior: -(L phi) + J2 phi, the three-point stencil of
    -(phi'' + ((1-2s) cot psi - (n-1) tan psi) phi') + J2 phi, in max norm
    over the nodes inside _SPHERE_ODE_BAND.  Boundary: the solver's flux row
    (L phi)[0] = 2 sigma c, c the sin^{2s} coefficient of the edge model
    through the first three nodes, against the nonlinear condition
    -2 sigma c = kappa_sigma phi(0)^p, relative to its right side.  A grid
    that does not start at psi = 0 raises ValueError.

    L comes from ``sphere.psi_rule``'s cache, keyed on the grid's bytes, n
    and sigma: alpha and p enter only through J2 and the boundary power,
    which act on L phi, so profiles at other (alpha, p) on the same grid and
    (n, sigma) share one read-only L, built once.
    """
    n, sigma, p = params.n, params.sigma, params.p
    J2 = derive_exponents(params).J2
    psi = profile.psi_grid
    phi = profile.phi
    L_phi = psi_operator(psi, n, sigma) @ phi
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
    order in the respective discretization scales (h; t0 and fd_ratio),
    which must satisfy 0 < h < 1, t0 > 0 and 0 < fd_ratio < 1.
    """
    n, sigma = params.n, params.sigma
    if not 0.0 < mu < n - 2.0 * sigma:
        raise ValueError(f"requires 0 < mu < n - 2*sigma, got mu={mu}")
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"requires 0 <= delta < 1/2, got delta={delta}")
    # h >= 1 or fd_ratio >= 1 would put stencil points at coordinates <= 0
    if not 0.0 < h < 1.0:
        raise ValueError(f"requires 0 < h < 1, got h={h}")
    if not t0 > 0.0:
        raise ValueError(f"requires t0 > 0, got t0={t0}")
    if not 0.0 < fd_ratio < 1.0:
        raise ValueError(f"requires 0 < fd_ratio < 1, got fd_ratio={fd_ratio}")
    q, t = point
    if not (t > 0.0 and q > 0.0):
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
    tk = t0 * _T0_HALVINGS
    g = np.array(
        [
            -tt ** (1.0 - 2.0 * sigma)
            * (psi_fn(q, tt * (1.0 + fd_ratio)) - psi_fn(q, tt * (1.0 - fd_ratio)))
            / (2.0 * tt * fd_ratio)
            for tt in tk
        ]
    )
    target = 2.0 * sigma * delta * q ** (-2.0 * sigma) * _barrier(mu, delta, sigma, q, 0.0)
    neumann = abs(_extrapolate_t0(g, sigma)[0] - target)
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
