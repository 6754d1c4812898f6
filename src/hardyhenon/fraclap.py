"""Principal-value quadrature of the fractional Laplacian on radial profiles.

The operator on a radial function reduces to a 1-D radial integral against
the sphere-averaged kernel.  The radial axis is split into closed-form
power-law pieces at the origin and at infinity, log-spaced zones, and a
symmetric principal-value zone around the evaluation radius; one kernel call
serves every zone.  On the symmetric zone the odd part of the integrand
cancels exactly; the remaining even part has an |s|^{1-2 sigma} edge and is
integrated with a Gauss-Jacobi rule carrying that weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .params import ProblemParams, derive_exponents
from .quadrature import (
    _power_tail,
    angular_kernel,
    gauss_jacobi_01,
    log_zone_nodes,
    tail_moment_coefficient,
)
from .specialfn import hypersingular_normalizer, singular_constant, unit_sphere_area

__all__ = [
    "RadialProfile",
    "QuadratureConfig",
    "QuadratureError",
    "power_profile",
    "combine_profiles",
    "check_Lsigma_membership",
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
#: [0, rho0] is taken in closed form, with rho0 this fraction of the inner
#: log zone's upper edge (the PV operator's and the extension's alike)
_INNER_CUTOFF = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and the far cutoff for the radial quadratures.

    ``nodes_radial`` and ``nodes_angular`` are the node counts of each radial
    zone and of the angular spike rule.  The angular node count governs only
    sphere-integral rows with c0 < q / 4; rows at and beyond that offset are
    summed by their 2F1 series (see ``quadrature``), so halving the nodes
    leaves them as they are.  ``tail_cutoff`` is the multiple of the
    evaluation radius beyond which the asserted power-law tail is integrated
    in closed form, by the PV operator and the extension alike.
    """

    nodes_radial: int = 256
    nodes_angular: int = 64
    tail_cutoff: float = 1e3

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


def _frac_laplacian_raw(profile: RadialProfile, r: float, n: int, sigma: float, cfg) -> float:
    """int_0^inf (u(r) - u(rho)) K(r, rho) d rho, with every zone's kernel from one call.

    The symmetric zone [r(1-h), r(1+h)] is folded onto s in (0, h] with
    rho = r(1 -+ s); the paired integrand is s^{1-2 sigma} times a smooth even
    function, matching the Gauss-Jacobi weight exactly.  Log zones join it to
    _OUTER_SPLIT r, reach in to rho0 and out to R.  The last kernel row is
    rho = 0, which gives [0, rho0] with the asserted inner power law, since
    the kernel is constant there to O((rho0/r)^2); [R, inf) uses the asserted
    outer power law.  The zones are summed in that order.
    """
    u = profile.evaluate
    ur = float(u(np.array([r]))[0])
    h = _PV_HALF_WIDTH
    rho0 = _INNER_CUTOFF * (1.0 - h) * r
    R = cfg.tail_cutoff * r

    s, w = gauss_jacobi_01(cfg.nodes_radial, 1.0 - 2.0 * sigma)
    s = s * h
    w = w * h ** (2.0 - 2.0 * sigma)
    # log zones in summation order: the outer gap, the inner zone, the far zone
    lo = np.array([[(1.0 + h) * r], [rho0], [_OUTER_SPLIT * r]])
    hi = np.array([[_OUTER_SPLIT * r], [(1.0 - h) * r], [R]])
    rho_z, w_z = log_zone_nodes(lo, hi, cfg.nodes_radial)

    # one kernel call: the pair rho = r(1 -+ s), the log zones, then rho = 0
    rho = np.vstack([r * (1.0 + s), r * (1.0 - s), rho_z])
    rho_all = np.append(rho, 0.0)
    k = angular_kernel((r - rho_all) ** 2, r * rho_all, n, n + 2.0 * sigma, cfg.nodes_angular)
    k0 = float(k[-1])
    (dp, dm, *d_z), (kp, km, *k_z) = ur - u(rho), rho ** (n - 1) * k[:-1].reshape(rho.shape)
    total = float(np.sum(w * (r * (dp * kp + dm * km)) / s ** (1.0 - 2.0 * sigma)))
    for wz, dz, kz in zip(w_z, d_z, k_z):
        total += float(np.sum(wz * dz * kz))

    a, b = profile.inner_exponent, profile.outer_exponent
    ua = float(u(np.array([rho0]))[0]) * rho0 ** a
    inner = k0 * (ur * rho0 ** n / n - ua * rho0 ** (n - a) / (n - a))
    ub = float(u(np.array([R]))[0]) * R ** b
    A = tail_moment_coefficient(n, sigma, r * r, 0.0)
    tail = unit_sphere_area(n) * (
        ur * _power_tail(R, 0.0, sigma, 1.0, A) - ub * _power_tail(R, b, sigma, 1.0, A)
    )
    return total + (inner + tail)


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


def verify_fall_identity(
    params: ProblemParams,
    radii: list[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> FallIdentityReport:
    """Check that u(r) = r^{-beta} satisfies the equation with the closed-form amplitude.

    For each radius the quadrature value of the operator is compared against
    C^{p-1} r^{alpha} u(r)^p; both sides are homogeneous of the same degree,
    so the relative error is radius-independent up to quadrature noise.  The
    report also carries the spread of the per-radius quadrature/closed-form
    multiplier ratios: a common offset in those ratios would indicate a
    normalization mismatch rather than quadrature error.
    """
    sigma, alpha, p = params.sigma, params.alpha, params.p
    if not -2.0 * sigma < alpha < 2.0 * sigma:
        raise ValueError(f"requires -2*sigma < alpha < 2*sigma, got alpha={alpha}")
    beta = derive_exponents(params).beta
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
    )
