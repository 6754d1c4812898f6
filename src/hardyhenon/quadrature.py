"""Shared quadrature machinery for the singular-integral and extension modules.

The workhorse is the angular sphere integral

    Phi(c0, q) = int_{S^{n-1}} (c0 + 2 q (1 - cos g))^{-m/2} dw,

with c0 >= 0 the squared offset between two radii (plus any elevation
squared) and q the product of the radii.  When c0/q is small the integrand
is a spike of width sqrt(c0/q) at g = 0; a sinh-stretched substitution
resolves it uniformly down to machine-scale offsets.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specialfn import unit_sphere_area

#: Below this value of c0/q the sinh-stretched angular rule is used.
_ANGULAR_SWITCH = 0.25


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=64)
def gauss_jacobi_01(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 s^beta f(s) ds."""
    from scipy.special import roots_jacobi  # deferred: only the PV zone needs it

    x, w = roots_jacobi(n, 0.0, beta)
    s = (x + 1.0) / 2.0
    w = w * 0.5 ** (beta + 1.0)
    return s, w


def _sphere_integral(c0, q, n: int, n_nodes: int, integrand):
    """int_{S^{n-1}} f(D) dw with D = c0 + 2 q (1 - cos g).

    ``integrand(D, w)`` returns w f(D) elementwise, where w = sin^{n-2} g is
    the polar weight of the sphere; the caller multiplies it in first, which
    fixes the rounding of integrands that cancel near the spike.  c0 and q
    broadcast together.  Offsets with c0/q below the switch use the
    sinh-stretched rule; q = 0 entries are exact, since D is then constant
    over the sphere.
    """
    c0b, qb = np.broadcast_arrays(np.asarray(c0, dtype=float), np.asarray(q, dtype=float))
    flat_c0 = c0b.reshape(-1)
    flat_q = qb.reshape(-1)
    out = np.empty(flat_c0.shape)
    ring = unit_sphere_area(n - 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(flat_q > 0.0, flat_c0 / np.where(flat_q > 0.0, flat_q, 1.0), np.inf)
    spike = ratio < _ANGULAR_SWITCH

    xg, wg = gauss_legendre(n_nodes)
    x01 = (xg + 1.0) / 2.0
    w01 = wg / 2.0

    flat = ~spike
    if flat.any():
        gam = math.pi * x01
        D = flat_c0[flat, None] + 4.0 * flat_q[flat, None] * np.sin(gam / 2.0) ** 2
        f = integrand(D, np.sin(gam) ** (n - 2))
        out[flat] = math.pi * (f @ w01) * ring

    if spike.any():
        delta = np.sqrt(flat_c0[spike] / flat_q[spike])
        xi_max = np.arcsinh(math.pi / delta)
        xi = xi_max[:, None] * x01
        gam = delta[:, None] * np.sinh(xi)
        jac = delta[:, None] * np.cosh(xi) * xi_max[:, None]
        D = flat_c0[spike, None] + 4.0 * flat_q[spike, None] * np.sin(gam / 2.0) ** 2
        f = integrand(D, np.sin(gam) ** (n - 2)) * jac
        out[spike] = (f * w01).sum(axis=1) * ring

    zero_q = flat_q == 0.0
    if zero_q.any():
        out[zero_q] = unit_sphere_area(n) * integrand(flat_c0[zero_q], 1.0)
    return out.reshape(c0b.shape)


def angular_kernel(c0, q, n: int, m: float, n_nodes: int):
    """Vectorized Phi(c0, q) for exponent m; c0 and q broadcast together."""
    return _sphere_integral(c0, q, n, n_nodes, lambda D, w: w * D ** (-m / 2.0))


def angular_flux_kernel(c0, q, t2: float, n: int, sigma: float, n_nodes: int):
    """Angular integral of (2 sigma R^2 - n t^2) D^{-(m+2)/2} over the sphere.

    R^2 = D - t^2 is the horizontal squared distance.  Combining the two
    terms inside the integrand keeps the near-spike cancellation pointwise
    instead of between two large quadrature results.
    """
    m = n + 2.0 * sigma
    return _sphere_integral(
        c0, q, n, n_nodes,
        lambda D, w: w * (2.0 * sigma * (D - t2) - n * t2) * D ** (-(m + 2.0) / 2.0),
    )


def log_zone_nodes(r_lo: float, r_hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in log radius; weights include the d(rho) Jacobian."""
    xg, wg = gauss_legendre(n_nodes)
    ya, yb = math.log(r_lo), math.log(r_hi)
    y = 0.5 * (ya + yb) + 0.5 * (yb - ya) * xg
    rho = np.exp(y)
    return rho, 0.5 * (yb - ya) * wg * rho


def tail_moment_coefficient(n: int, sigma: float, x2: float, t2: float) -> float:
    """Second-order coefficient of the far-field kernel expansion.

    Phi ~ |S^{n-1}| rho^{-m} (1 + A rho^{-2}) for rho much larger than the
    source scale, with A = m(m+2) x^2 / (2n) - m (x^2 + t^2) / 2.
    """
    m = n + 2.0 * sigma
    return m * (m + 2.0) * x2 / (2.0 * n) - m * (x2 + t2) / 2.0
