"""Principal-value quadrature of the fractional Laplacian on radial profiles.

The operator on a radial function reduces to a 1-D radial integral against
the sphere-averaged kernel.  The radial axis is split into an inner zone,
a symmetric principal-value zone around the evaluation radius, an outer
zone, and a closed-form power-law tail.  On the symmetric zone the odd part
of the integrand cancels exactly; the remaining even part has an
|s|^{1-2 sigma} edge and is integrated with a Gauss-Jacobi rule carrying
that weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .params import ProblemParams
from .quadrature import (
    angular_kernel,
    gauss_jacobi_01,
    log_zone_nodes,
    tail_moment_coefficient,
)
from .specialfn import hypersingular_normalizer, unit_sphere_area

__all__ = [
    "RadialProfile",
    "QuadratureConfig",
    "QuadratureError",
    "power_profile",
    "constant_profile",
    "combine_profiles",
    "check_Lsigma_membership",
    "reduced_kernel",
    "frac_laplacian_radial",
    "verify_fall_identity",
    "FallIdentityReport",
]


class QuadratureError(RuntimeError):
    """Node-doubling disagreement above tolerance; carries the error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def _halving_checked(evaluate, cfg, tol: float | None, where: str) -> float:
    """``evaluate(cfg)``; with ``tol`` set, also at half the node counts.

    A relative disagreement above ``tol`` raises QuadratureError carrying
    the achieved estimate.
    """
    value = evaluate(cfg)
    if tol is not None:
        coarse = evaluate(cfg.halved())
        estimate = abs(value - coarse) / max(abs(value), abs(coarse), 1e-300)
        if estimate > tol:
            raise QuadratureError(
                f"node-doubling disagreement {estimate:.3e} exceeds {tol:.3e} at {where}", estimate
            )
    return value


@dataclass(frozen=True)
class RadialProfile:
    """A radial function with asserted power-law behavior at 0 and infinity.

    ``evaluate`` must accept numpy arrays of radii.  ``inner_exponent`` a
    asserts u ~ r^{-a} near 0, ``outer_exponent`` b asserts u ~ r^{-b} at
    infinity; both are trusted by the closed-form endpoint corrections.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    inner_exponent: float
    outer_exponent: float

    def __call__(self, r):
        return self.evaluate(np.asarray(r, dtype=float))


def power_profile(exponent: float, coefficient: float = 1.0) -> RadialProfile:
    """u(r) = coefficient * r^{-exponent}."""
    return RadialProfile(
        evaluate=lambda r: coefficient * np.asarray(r, dtype=float) ** (-exponent),
        inner_exponent=exponent,
        outer_exponent=exponent,
    )


def constant_profile(value: float = 1.0) -> RadialProfile:
    return RadialProfile(
        evaluate=lambda r: np.full_like(np.asarray(r, dtype=float), value),
        inner_exponent=0.0,
        outer_exponent=0.0,
    )


def combine_profiles(coeffs: list[float], profiles: list[RadialProfile]) -> RadialProfile:
    """Linear combination; endpoint exponents take the dominant behavior."""
    def ev(r):
        r = np.asarray(r, dtype=float)
        return sum(c * prof.evaluate(r) for c, prof in zip(coeffs, profiles))

    return RadialProfile(
        evaluate=ev,
        inner_exponent=max(p.inner_exponent for p in profiles),
        outer_exponent=min(p.outer_exponent for p in profiles),
    )


# zone geometry in multiples of the evaluation radius: the symmetric zone
# spans 1 -+ _PV_HALF_WIDTH, and a log zone joins it to _OUTER_SPLIT
_PV_HALF_WIDTH = 0.5
_OUTER_SPLIT = 2.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and cutoffs for the radial principal-value quadrature.

    ``tail_cutoff`` is the multiple of the evaluation radius beyond which the
    asserted power-law tail is integrated in closed form; ``inner_cutoff``
    plays the same role at the origin, as a fraction of the inner edge
    r (1 - _PV_HALF_WIDTH) of the symmetric zone.
    """

    nodes_radial: int = 256
    nodes_angular: int = 64
    tail_cutoff: float = 1e3
    inner_cutoff: float = 1e-8

    def __post_init__(self) -> None:
        if self.nodes_radial < 8 or self.nodes_angular < 8:
            raise ValueError("node counts must be at least 8")
        if self.tail_cutoff <= _OUTER_SPLIT:
            raise ValueError("tail cutoff must lie beyond the outer split")

    def halved(self) -> "QuadratureConfig":
        return replace(
            self,
            nodes_radial=max(8, self.nodes_radial // 2),
            nodes_angular=max(8, self.nodes_angular // 2),
        )


DEFAULT_CONFIG = QuadratureConfig()


def check_Lsigma_membership(profile: RadialProfile, n: int, sigma: float) -> bool:
    """Integrability of the profile against the kernel's global weight.

    Requires r^{n-1} u(r) integrable at 0 (inner exponent below n) and
    u(r) (1+r)^{-n-2 sigma} integrable at infinity (outer decay above
    -2 sigma).
    """
    return profile.inner_exponent < n and profile.outer_exponent > -2.0 * sigma


def reduced_kernel(
    r: float, rho: float, n: int, sigma: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Sphere-reduced kernel K(r, rho): angular integral times rho^{n-1}.

    Homogeneous of degree -1-2 sigma: K(l r, l rho) = l^{-1-2s} K(r, rho).
    The coincidence r = rho is rejected; the caller's symmetric splitting
    owns that limit.
    """
    if r <= 0.0 or rho <= 0.0:
        raise ValueError("reduced_kernel requires positive radii")
    if r == rho:
        raise ValueError("reduced_kernel is singular at r == rho")
    m = n + 2.0 * sigma
    phi = angular_kernel((r - rho) ** 2, r * rho, n, m, cfg.nodes_angular)
    return float(phi) * rho ** (n - 1)


def _pv_symmetric_zone(u, ur, r, h, n, sigma, cfg) -> float:
    """Integral over [r(1-h), r(1+h)] of (u(r)-u(rho)) K(r, rho) d rho.

    Folded onto s in (0, h] with rho = r(1 -+ s); the paired integrand is
    s^{1-2 sigma} times a smooth even function, matching the Gauss-Jacobi
    weight exactly.
    """
    m = n + 2.0 * sigma
    s, w = gauss_jacobi_01(cfg.nodes_radial, 1.0 - 2.0 * sigma)
    s = s * h
    w = w * h ** (2.0 - 2.0 * sigma)
    rho_p = r * (1.0 + s)
    rho_m = r * (1.0 - s)
    k_p = rho_p ** (n - 1) * angular_kernel((r - rho_p) ** 2, r * rho_p, n, m, cfg.nodes_angular)
    k_m = rho_m ** (n - 1) * angular_kernel((r - rho_m) ** 2, r * rho_m, n, m, cfg.nodes_angular)
    paired = r * ((ur - u(rho_p)) * k_p + (ur - u(rho_m)) * k_m)
    return float(np.sum(w * paired / s ** (1.0 - 2.0 * sigma)))


def _log_zone(u, ur, r, lo, hi, n, sigma, cfg) -> float:
    if hi <= lo:
        return 0.0
    m = n + 2.0 * sigma
    rho, w = log_zone_nodes(lo, hi, cfg.nodes_radial)
    k = rho ** (n - 1) * angular_kernel((r - rho) ** 2, r * rho, n, m, cfg.nodes_angular)
    return float(np.sum(w * (ur - u(rho)) * k))


def _endpoint_corrections(profile, ur, r, rho0, R, n, sigma) -> float:
    """Closed-form [0, rho0] and [R, inf) pieces from the asserted power laws."""
    m = n + 2.0 * sigma
    area = unit_sphere_area(n)
    a = profile.inner_exponent
    b = profile.outer_exponent
    c2 = tail_moment_coefficient(n, sigma, r * r, 0.0)

    # near-origin: kernel ~ area * r^{-m} (1 + c2' (rho/r)^2), c2' symmetric in r<->rho
    c2_in = tail_moment_coefficient(n, sigma, 1.0, 0.0)  # coefficient of (rho/r)^2
    ua = float(profile.evaluate(np.array([rho0]))[0]) * rho0 ** a
    inner = area * r ** (-m) * (
        ur * rho0 ** n / n
        - ua * rho0 ** (n - a) / (n - a)
        + c2_in / r ** 2 * (ur * rho0 ** (n + 2) / (n + 2) - ua * rho0 ** (n + 2 - a) / (n + 2 - a))
    )

    ub = float(profile.evaluate(np.array([R]))[0]) * R ** b
    tail = area * (
        ur * (R ** (-2.0 * sigma) / (2.0 * sigma) + c2 * R ** (-2.0 * sigma - 2.0) / (2.0 * sigma + 2.0))
        - ub
        * (
            R ** (-2.0 * sigma - b) / (2.0 * sigma + b)
            + c2 * R ** (-2.0 * sigma - b - 2.0) / (2.0 * sigma + b + 2.0)
        )
    )
    return inner + tail


def _frac_laplacian_raw(profile: RadialProfile, r: float, n: int, sigma: float, cfg) -> float:
    u = profile.evaluate
    ur = float(u(np.array([r]))[0])
    h = _PV_HALF_WIDTH

    total = _pv_symmetric_zone(u, ur, r, h, n, sigma, cfg)
    total += _log_zone(u, ur, r, (1.0 + h) * r, _OUTER_SPLIT * r, n, sigma, cfg)

    rho0 = cfg.inner_cutoff * (1.0 - h) * r
    R = cfg.tail_cutoff * r
    total += _log_zone(u, ur, r, rho0, (1.0 - h) * r, n, sigma, cfg)
    total += _log_zone(u, ur, r, _OUTER_SPLIT * r, R, n, sigma, cfg)
    total += _endpoint_corrections(profile, ur, r, rho0, R, n, sigma)
    return total


def frac_laplacian_radial(
    profile: RadialProfile,
    r: float,
    params: ProblemParams,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    convergence_tol: float | None = None,
) -> float:
    """Evaluate the operator at radius r, normalizer included.

    With ``convergence_tol`` set, the evaluation is repeated at half the
    node counts and a relative disagreement above the tolerance raises
    QuadratureError carrying the achieved estimate.
    """
    if r <= 0.0:
        raise ValueError("evaluation radius must be positive")
    n, sigma = params.n, params.sigma
    if not check_Lsigma_membership(profile, n, sigma):
        raise ValueError(
            "profile is outside the integrability class: requires inner exponent "
            f"< n and outer exponent > -2*sigma, got ({profile.inner_exponent}, "
            f"{profile.outer_exponent}) with n={n}, sigma={sigma}"
        )
    c = hypersingular_normalizer(n, sigma)
    return _halving_checked(
        lambda cf: c * _frac_laplacian_raw(profile, r, n, sigma, cf),
        cfg, convergence_tol, f"r={r}",
    )


@dataclass(frozen=True)
class FallIdentityReport:
    """Quadrature-versus-closed-form check of the exact singular solution."""

    params: ProblemParams
    radii: tuple[float, ...]
    per_radius_errors: tuple[float, ...]
    max_rel_error: float
    multiplier_ratio_drift: float = 0.0
    per_radius_ratios: tuple[float, ...] = field(default=())


def verify_fall_identity(
    params: ProblemParams,
    radii: list[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> FallIdentityReport:
    """Check that u(r) = r^{-beta} satisfies the equation with the closed-form amplitude.

    For each radius the quadrature value of the operator is compared against
    C^{p-1} r^{alpha} u(r)^p; both sides are homogeneous of the same degree,
    so the relative error is radius-independent up to quadrature noise.  The
    report also carries the per-radius quadrature/closed-form multiplier
    ratios: a common offset in those ratios would indicate a normalization
    mismatch rather than quadrature error.
    """
    from .specialfn import singular_constant  # deferred: keeps module deps one-way

    n, sigma, alpha, p = params.n, params.sigma, params.alpha, params.p
    if not -2.0 * sigma < alpha < 2.0 * sigma:
        raise ValueError(f"requires -2*sigma < alpha < 2*sigma, got alpha={alpha}")
    beta = (2.0 * sigma + alpha) / (p - 1.0)
    cpm1 = singular_constant(params) ** (p - 1.0)

    profile = power_profile(beta)
    errors = []
    ratios = []
    for r in radii:
        lhs = frac_laplacian_radial(profile, r, params, cfg)
        target = cpm1 * r ** (-beta - 2.0 * sigma)
        errors.append(abs(lhs - target) / abs(target))
        ratios.append(lhs / target)
    drift = max(ratios) - min(ratios) if len(ratios) > 1 else 0.0
    return FallIdentityReport(
        params=params,
        radii=tuple(radii),
        per_radius_errors=tuple(errors),
        max_rel_error=max(errors),
        multiplier_ratio_drift=drift,
        per_radius_ratios=tuple(ratios),
    )
