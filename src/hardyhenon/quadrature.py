"""Shared quadrature machinery for the singular-integral and extension modules.

The workhorse is the angular sphere integral

    Phi(c0, q) = int_{S^{n-1}} (c0 + 2 q (1 - cos g))^{-m/2} dw,

with c0 >= 0 the squared offset between two radii (plus any elevation
squared) and q the product of the radii.  Rows fall into three regimes by
c0/q.  When it is small the integrand is a spike of width sqrt(c0/q) at
g = 0; a sinh-stretched substitution resolves it uniformly down to
machine-scale offsets.  In between, a flat Gauss-Legendre rule in g is used.
When c0 >= 6 q (q = 0 included) the integrand barely varies over the
sphere, and the row is summed in closed form: with a = c0 + 2 q and
z = (2 q / a)^2 <= 1/16,

    int_{S^{n-1}} (a - 2 q cos g)^{-mu} dw
        = |S^{n-1}| a^{-mu} 2F1(mu/2, mu/2 + 1/2; n/2; z),

whose Taylor series in z is cut where its terms fall below 2^-54.  The
same cached Horner series ``_hyp2f1_series`` sums the closed-form sphere
profile of the exact solution (``extension.exact_sphere_profile``), with
arguments up to 15/16.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specialfn import unit_sphere_area

#: Below this value of c0/q the sinh-stretched angular rule is used.
_ANGULAR_SWITCH = 0.25
#: At and above this value of c0/q rows are summed by the 2F1 series, where
#: z = (2q / (c0 + 2q))^2 is at most _SERIES_Z_MAX = 1/16.
_SERIES_SWITCH = 6.0
_SERIES_Z_MAX = (2.0 / (_SERIES_SWITCH + 2.0)) ** 2
#: Rows per block of the sphere integral.  Each call makes its (rows, nodes)
#: scratch arrays once, 256 KB each at 64 angular nodes, and every block
#: is evaluated in them, so the memory does not grow with the batch and no
#: block allocates.  Blocks that made their own temporaries had malloc hand
#: them back to the system and fault fresh pages in for the next block, and
#: how often depended on the process's allocation history: with 256-row
#: blocks, one extension_flux round took 212k minor faults and 2.9 s in one
#: process, 25k and 2.2 s in another running the same code.
_BLOCK_ROWS = 512


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


class _AngularRule(NamedTuple):
    x01: np.ndarray  # Gauss-Legendre nodes on [0, 1]
    w01: np.ndarray  # and their weights
    flat_s2: np.ndarray  # sin^2(g/2) at the flat rule's angles g = pi x01
    flat_w: np.ndarray  # sin^{n-2} g there
    ring: float  # |S^{n-2}|
    area: float  # |S^{n-1}|, the factor of the series rows


@lru_cache(maxsize=64)
def _angular_rule(n: int, n_nodes: int) -> _AngularRule:
    """Everything in the sphere integral that depends on (n, n_nodes) only."""
    xg, wg = gauss_legendre(n_nodes)
    x01 = (xg + 1.0) / 2.0
    gam = math.pi * x01
    tables = (x01, wg / 2.0, np.sin(gam / 2.0) ** 2, np.sin(gam) ** (n - 2))
    for a in tables:
        a.flags.writeable = False
    return _AngularRule(*tables, unit_sphere_area(n - 1), unit_sphere_area(n))


@lru_cache(maxsize=256)
def _hyp2f1_coefficients(a: float, b: float, c: float, z_max: float) -> tuple[float, ...]:
    """Taylor coefficients of 2F1(a, b; c; z), every one whose term at
    z = z_max is at least 2^-54.  With a, b, c > 0 the terms are positive
    and their ratio tends to z, so the rest sum to below about
    2^-54 / (1 - z_max)."""
    coefs = [1.0]
    k = 0
    while True:
        coef = coefs[-1] * (a + k) * (b + k) / ((c + k) * (k + 1))
        k += 1
        if coef * z_max ** k < 2.0 ** -54:
            return tuple(coefs)
        coefs.append(coef)


def _hyp2f1_series(a: float, b: float, c: float, z: np.ndarray,
                   z_max: float = _SERIES_Z_MAX) -> np.ndarray:
    """2F1(a, b; c; z) for 0 <= z <= z_max < 1 and a, b, c > 0, by Horner's
    rule; every term is positive, so the sum keeps its relative accuracy."""
    coefs = _hyp2f1_coefficients(a, b, c, z_max)
    f = np.full(z.shape, coefs[-1])
    for coef in coefs[-2::-1]:
        f *= z
        f += coef
    return f


def _sphere_mean_series(n: int, mu: float, z: np.ndarray) -> np.ndarray:
    """2F1(mu/2, mu/2 + 1/2; n/2; z) for z <= _SERIES_Z_MAX: the sphere mean
    of a series row, (a - 2 q cos g)^{-mu} = a^{-mu} (1 - x cos g)^{-mu}."""
    return _hyp2f1_series(mu / 2.0, mu / 2.0 + 0.5, n / 2.0, z)


def _blocks(rows: np.ndarray):
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield rows[start:start + _BLOCK_ROWS]


def _sphere_integral(c0, q, n: int, n_nodes: int, integrand, series, *row_args):
    """int_{S^{n-1}} f(D) dw with D = c0 + 2 q (1 - cos g).

    ``integrand(D, w, spare, *args)`` overwrites D with w f(D) elementwise and
    returns it, where w = sin^{n-2} g is the polar weight of the sphere and
    ``spare`` is a scratch array of D's shape; the caller multiplies w in
    first, which fixes the rounding of integrands that cancel near the spike.
    ``series(a, z, *args)`` returns the sphere mean of f(D) on rows with
    c0 >= _SERIES_SWITCH * q (q = 0 included), where D = a - 2 q cos g with
    a = c0 + 2 q and z = (2 q / a)^2 <= 1/16.  c0, q and the per-row
    ``row_args`` broadcast together; each arg reaches the integrand shaped to
    broadcast against D, and ``series`` as a 1-D array.  Offsets with c0/q
    below _ANGULAR_SWITCH use the sinh-stretched rule, the rest the flat rule.

    Rows of the two rules are evaluated in blocks of ``_BLOCK_ROWS`` in
    scratch arrays made once per call, in place, by the same operations in
    the same order as fresh arrays would take.  Each row is summed by itself
    and series rows are evaluated elementwise, so a row's value does not
    depend on the block size or the batch.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c0, q, *row_args)))
    flat_c0, flat_q, *flat_args = (a.reshape(-1) for a in arrays)
    out = np.empty(flat_c0.shape)
    rule = _angular_rule(n, n_nodes)

    far = flat_c0 >= _SERIES_SWITCH * flat_q
    spike = flat_c0 < _ANGULAR_SWITCH * flat_q

    rows = np.flatnonzero(far)
    a = flat_c0[rows] + 2.0 * flat_q[rows]
    z = 2.0 * flat_q[rows] / a
    z *= z
    out[rows] = rule.area * series(a, z, *(arg[rows] for arg in flat_args))

    flat_rows = np.flatnonzero(~(spike | far))
    scratch = np.empty((2, min(_BLOCK_ROWS, flat_rows.size), n_nodes))
    for rows in _blocks(flat_rows):
        D, spare = scratch[:, :rows.size]
        np.multiply(4.0 * flat_q[rows, None], rule.flat_s2, out=D)
        D += flat_c0[rows, None]
        f = integrand(D, rule.flat_w, spare, *(a[rows, None] for a in flat_args))
        # a per-row sum, not f @ w01: BLAS rounds a row by how many rows share the call
        f *= rule.w01
        out[rows] = math.pi * f.sum(axis=1) * rule.ring

    spike_rows = np.flatnonzero(spike)
    scratch = np.empty((5, min(_BLOCK_ROWS, spike_rows.size), n_nodes))
    for rows in _blocks(spike_rows):
        xi, gam, jac, D, spare = scratch[:, :rows.size]
        c0s, qs = flat_c0[rows, None], flat_q[rows, None]
        delta = np.sqrt(c0s / qs)
        xi_max = np.arcsinh(math.pi / delta)
        np.multiply(xi_max, rule.x01, out=xi)
        np.sinh(xi, out=gam)
        gam *= delta
        np.cosh(xi, out=jac)
        jac *= delta
        jac *= xi_max
        # sin(g/2) = 2 tau / (1 + tau^2) with tau = tan(g/4): numpy's float64
        # tangent is vectorized where its sine is a scalar loop
        tau = gam  # gam is not needed again
        tau *= 0.25
        np.tan(tau, out=tau)
        np.multiply(tau, tau, out=D)
        D += 1.0
        tau *= 2.0
        tau /= D
        s2 = tau
        s2 **= 2
        # sin^2 g = 4 sin^2(g/2) cos^2(g/2): one tangent per node
        w = np.multiply(4.0, s2, out=xi)
        w *= np.subtract(1.0, s2, out=D)
        w **= (n - 2) / 2.0
        np.multiply(4.0 * qs, s2, out=D)
        D += c0s
        f = integrand(D, w, spare, *(a[rows, None] for a in flat_args))
        f *= jac
        f *= rule.w01
        out[rows] = f.sum(axis=1) * rule.ring

    return out.reshape(arrays[0].shape)


def angular_kernel(c0, q, n: int, m: float, n_nodes: int):
    """Vectorized Phi(c0, q) for exponent m; c0 and q broadcast together."""

    def integrand(D, w, spare):
        D **= -m / 2.0
        D *= w
        return D

    def series(a, z):
        return a ** (-m / 2.0) * _sphere_mean_series(n, m / 2.0, z)

    return _sphere_integral(c0, q, n, n_nodes, integrand, series)


def angular_flux_kernel(c0, q, t2, n: int, sigma: float, n_nodes: int):
    """Angular integral of (2 sigma R^2 - n t^2) D^{-(m+2)/2} over the sphere.

    R^2 = D - t^2 is the horizontal squared distance; t2 broadcasts with c0
    and q, so points at different elevations share one call.  The two terms
    cancel near t^2 = 2 sigma D / m, so they are combined before anything is
    summed.  On the two quadrature rules that happens inside the integrand,
    node by node.  Series rows (c0 >= 6 q) combine them in the numerator,
    which is linear in cos g: with D = a - 2 q cos g and nu = m/2 + 1 its
    sphere mean is

        a^{-nu} ((2 sigma (a - t^2) - n t^2) F_n(nu)
                 - 2 sigma a z (nu / n) F_{n+2}(nu + 1)),

    where F_n(mu) = 2F1(mu/2, mu/2 + 1/2; n/2; z) and the second term comes
    from the sphere mean of cos g (1 - x cos g)^{-nu}, which is
    x (nu / n) F_{n+2}(nu + 1) with x = 2 q / a.  Against 40-digit mpmath on
    n in {2, 3, 5, 10}, sigma in {.05, .15, ..., .95}, t^2 / c0 in
    {0, 1/4, 1/2, 3/4, 1} and 201 offsets c0/q from 6 to 1e8, series rows
    stay within 1.3e-13 relative (worst at t^2 = c0/2, next to the zero),
    as the flat rule did there; summing 2 sigma Phi_m - m t^2 Phi_{m+2}
    instead reached 1.4e-12.
    """
    m = n + 2.0 * sigma
    nu = m / 2.0 + 1.0

    def integrand(D, w, spare, t2):
        # w (2 sigma (D - t2) - n t2) D^{-(m+2)/2}, one product at a time
        np.subtract(D, t2, out=spare)
        spare *= 2.0 * sigma
        spare -= n * t2
        spare *= w
        D **= -(m + 2.0) / 2.0
        D *= spare
        return D

    def series(a, z, t2):
        mean = 2.0 * sigma * (a - t2) - n * t2
        mean /= a
        mean *= _sphere_mean_series(n, nu, z)
        mean -= 2.0 * sigma * nu / n * z * _sphere_mean_series(n + 2, nu + 1.0, z)
        mean *= a ** (-m / 2.0)
        return mean

    return _sphere_integral(c0, q, n, n_nodes, integrand, series, t2)


def log_zone_nodes(r_lo: float, r_hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in log radius; weights include the d(rho) Jacobian.

    ``r_lo`` and ``r_hi`` may be (zones, 1) columns, giving one zone per row.
    """
    xg, wg = gauss_legendre(n_nodes)
    ya, yb = np.log(r_lo), np.log(r_hi)
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


def _power_tail(R, decay: float, sigma: float, c0, c2):
    """int_R^inf rho^{-decay} (c0 rho^{-1-2 sigma} + c2 rho^{-3-2 sigma}) d rho in closed form.

    The far-field piece of a trace decaying like rho^{-decay} against the
    kernel expansion above; R, c0 and c2 broadcast together.
    """
    e = 2.0 * sigma + decay
    return c0 * R ** (-e) / e + c2 * R ** (-e - 2.0) / (e + 2.0)
