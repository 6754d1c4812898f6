"""Principal-value quadrature of the fractional Laplacian on radial profiles.

The operator on a radial function reduces to a 1-D radial integral against
the sphere-averaged kernel.  The radial axis is split into closed-form
power-law pieces at the origin and at infinity, log-spaced zones, and a
symmetric principal-value zone around the evaluation radius.  On the
symmetric zone the odd part of the integrand cancels exactly; the remaining
even part has an |s|^{1-2 sigma} edge and is integrated with a Gauss-Jacobi
rule carrying that weight.

Every zone is a fixed multiple of the evaluation radius and the kernel is
homogeneous, so the nodes and the kernel-carrying weights are built once per
(n, sigma, QuadratureConfig) at r = 1, by one kernel call, and cached
(``_pv_rule``).  An evaluation at r is then one profile evaluation at r
times those nodes (the closed-form ends' radii r, rho0 and R ride at the
front of the same array), one dot product scaled by r^{-2 sigma}, and the
closed-form ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

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

    ``evaluate`` must accept numpy arrays of radii and be elementwise: each
    value depends only on its own radius.  Both operators evaluate it once
    per call: the PV operator on one 1-D array holding r, rho0, R and r
    times the rule's nodes, reading u(r), u(rho0) and u(R) from its front,
    and the extension (``extension._radial_sum``) on every point's rho0 and
    zone nodes with the tail radii R appended.  Being elementwise is what
    makes those the values separate calls give, to the bit.
    ``inner_exponent`` a asserts u ~ r^{-a} near 0, ``outer_exponent`` b
    asserts u ~ r^{-b} at infinity; both are trusted by the closed-form
    endpoint corrections.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    inner_exponent: float
    outer_exponent: float

    def __call__(self, r):
        return self.evaluate(np.asarray(r, dtype=float))


def power_profile(exponent: float, coefficient: float = 1.0) -> RadialProfile:
    """u(r) = coefficient * r^{-exponent}."""
    def ev(r):
        # the power is a fresh array (or a scalar), so scaling it in place
        # does the same two IEEE operations with one allocation fewer
        u = np.asarray(r, dtype=float) ** (-exponent)
        u *= coefficient
        return u

    return RadialProfile(evaluate=ev, inner_exponent=exponent, outer_exponent=exponent)


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
#: rho0 in multiples of the evaluation radius
_RHO0 = _INNER_CUTOFF * (1.0 - _PV_HALF_WIDTH)


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


#: the closed-form ends' radii r, rho0 and R head the rule's node array
_ENDS = 3


class _PvRule(NamedTuple):
    # at r = 1: 1, rho0 and R, then the pair 1 + s, 1 - s and the log zones
    nodes: np.ndarray
    weight: np.ndarray  # node weight x rho^{n-1} x kernel, over s^{1-2 sigma} on the pair
    k0: float  # the kernel row at rho = 0


@lru_cache(maxsize=64)
def _pv_rule(n: int, sigma: float, cfg: QuadratureConfig) -> _PvRule:
    """The radial rule of the PV operator at r = 1, kernel rows included.

    The symmetric zone [1 - h, 1 + h] is folded onto s in (0, h] with
    rho = 1 -+ s; the paired integrand is s^{1-2 sigma} times a smooth even
    function, matching the Gauss-Jacobi weight exactly.  Log zones join it to
    _OUTER_SPLIT, reach in to rho0 and out to R = ``tail_cutoff``.  One
    kernel call gives every zone's rows and the row at rho = 0.  The kernel
    is homogeneous, Phi_m(l^2 c0, l^2 q) = l^{-m} Phi_m(c0, q), so at radius
    r the nodes are r rho and the weights scale by r^{-2 sigma}.
    """
    h = _PV_HALF_WIDTH
    s, w = gauss_jacobi_01(cfg.nodes_radial, 1.0 - 2.0 * sigma)
    s = s * h
    w = w * h ** (2.0 - 2.0 * sigma) / s ** (1.0 - 2.0 * sigma)
    # log zones: the outer gap, the inner zone, the far zone
    lo = np.array([[1.0 + h], [_INNER_CUTOFF * (1.0 - h)], [_OUTER_SPLIT]])
    hi = np.array([[_OUTER_SPLIT], [1.0 - h], [cfg.tail_cutoff]])
    rho_z, w_z = log_zone_nodes(lo, hi, cfg.nodes_radial)
    rho = np.concatenate([1.0 + s, 1.0 - s, rho_z.ravel()])
    rho_all = np.append(rho, 0.0)
    k = angular_kernel((1.0 - rho_all) ** 2, rho_all, n, n + 2.0 * sigma, cfg.nodes_angular)
    weight = np.concatenate([w, w, w_z.ravel()]) * rho ** (n - 1) * k[:-1]
    nodes = np.concatenate([[1.0, _RHO0, cfg.tail_cutoff], rho])
    for a in (nodes, weight):
        a.flags.writeable = False
    return _PvRule(nodes, weight, float(k[-1]))


def _frac_laplacian_raw(profile: RadialProfile, r: float, n: int, sigma: float, cfg) -> float:
    """int_0^inf (u(r) - u(rho)) K(r, rho) d rho by the cached rule ``_pv_rule``.

    [0, rho0] uses the asserted inner power law, since the kernel is constant
    there to O((rho0/r)^2); [R, inf) uses the asserted outer power law.  The
    profile is evaluated once, at r times the rule's nodes: u(r), u(rho0)
    and u(R) are the first three values.
    """
    rule = _pv_rule(n, sigma, cfg)
    rho0 = _RHO0 * r
    R = cfg.tail_cutoff * r
    a, b = profile.inner_exponent, profile.outer_exponent
    try:
        # Python float powers raise where numpy's would warn, so the ends'
        # powers come before the profile: at a small r, k0 overflows first
        k0 = rule.k0 * r ** (-n - 2.0 * sigma)
        rho0_a, rho0_n, rho0_na = rho0 ** a, rho0 ** n, rho0 ** (n - a)
        R_b = R ** b
        A = tail_moment_coefficient(n, sigma, r * r, 0.0)
        tail_0 = _power_tail(R, 0.0, sigma, 1.0, A)
        tail_b = _power_tail(R, b, sigma, 1.0, A)
        scale = r ** (-2.0 * sigma)
    except OverflowError as exc:
        raise ValueError(f"the closed-form ends overflow a double at r={r}") from exc
    u = profile.evaluate(r * rule.nodes)
    ur, ua, ub = u[:_ENDS].tolist()
    inner = k0 * (ur * rho0_n / n - ua * rho0_a * rho0_na / (n - a))
    tail = unit_sphere_area(n) * (ur * tail_0 - ub * R_b * tail_b)
    total = scale * float(rule.weight @ (ur - u[_ENDS:]))
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
    if not 0.0 < r < np.inf:
        raise ValueError(f"evaluation radius r must be finite and positive, got r={r}")
    n, sigma = params.n, params.sigma
    if not check_Lsigma_membership(profile, n, sigma):
        raise ValueError(
            "profile is outside the integrability class: requires inner exponent "
            f"< n and outer exponent > -2*sigma, got ({profile.inner_exponent}, "
            f"{profile.outer_exponent}) with n={n}, sigma={sigma}"
        )
    c = hypersingular_normalizer(n, sigma)
    if convergence_tol is None:
        return c * _frac_laplacian_raw(profile, r, n, sigma, cfg)
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
