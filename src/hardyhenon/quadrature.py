"""Shared quadrature machinery for the singular-integral and extension modules.

The workhorse is the angular sphere integral

    Phi(c0, q) = int_{S^{n-1}} (c0 + 2 q (1 - cos g))^{-m/2} dw,

with c0 >= 0 the squared offset between two radii (plus any elevation
squared) and q the product of the radii.  Rows fall into two regimes by
c0/q.  Below 1/4 the integrand is a spike of width sqrt(c0/q) at g = 0; a
sinh-stretched substitution resolves it uniformly down to machine-scale
offsets.  Every other row (q = 0 included) is summed in closed form in the
Gegenbauer radius h = q / A, where s = sqrt(c0 (c0 + 4 q)) and
A = (c0 + 2 q + s) / 2 make D = A (1 - 2 h cos g + h^2) with
h^2 <= _SERIES_Z_MAX = 0.3716.  Averaging the generating function of the
Gegenbauer polynomials (DLMF 18.12.4) over the sphere, and a quadratic
transformation (DLMF 15.8) of the result, give

    int_{S^{n-1}} D^{-mu} dw = |S^{n-1}| A^{-mu} 2F1(mu, mu - n/2 + 1; n/2; h^2),

whose parameters are positive for mu >= n/2, so its Taylor series in h^2
has positive terms; it is cut where they fall below 2^-54 (38-53 terms
for n <= 10).  The same cached Horner series ``_hyp2f1_series`` sums the
closed-form sphere profile of the exact solution
(``extension.exact_sphere_profile``), with arguments up to 15/16.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specialfn import unit_sphere_area

#: Below this value of c0/q the sinh-stretched angular rule is used; at and
#: above it rows are summed by the 2F1 series in h^2, which is then at most
#: _SERIES_Z_MAX.
_ANGULAR_SWITCH = 0.25
_SERIES_Z_MAX = (2.0 / (_ANGULAR_SWITCH + 2.0
                        + math.sqrt(_ANGULAR_SWITCH * (_ANGULAR_SWITCH + 4.0)))) ** 2
#: Rows per block of the spike rule.  Each call makes its (rows, nodes)
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
    ring: float  # |S^{n-2}|
    area: float  # |S^{n-1}|, the factor of the series rows


@lru_cache(maxsize=64)
def _angular_rule(n: int, n_nodes: int) -> _AngularRule:
    """Everything in the sphere integral that depends on (n, n_nodes) only."""
    xg, wg = gauss_legendre(n_nodes)
    tables = ((xg + 1.0) / 2.0, wg / 2.0)
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


def _blocks(rows: np.ndarray):
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield rows[start:start + _BLOCK_ROWS]


def _sphere_integral(c0, q, n: int, n_nodes: int, integrand, series, *row_args):
    """int_{S^{n-1}} f(D) dw with D = c0 + 2 q (1 - cos g).

    ``integrand(D, w, spare, *args)`` overwrites D with w f(D) elementwise and
    returns it, where w = sin^{n-2} g is the polar weight of the sphere and
    ``spare`` is a scratch array of D's shape; the caller multiplies w in
    first, which fixes the rounding of integrands that cancel near the spike.
    ``series(A, s, h2, *args)`` returns the sphere mean of f(D) on rows with
    c0 >= _ANGULAR_SWITCH * q (q = 0 included), where D = A (1 - 2 h cos g + h^2)
    with s = sqrt(c0 (c0 + 4 q)), A = (c0 + 2 q + s) / 2 and h2 = (q / A)^2
    <= _SERIES_Z_MAX.  c0, q and the per-row ``row_args`` broadcast together;
    each arg reaches the integrand shaped to broadcast against D, and
    ``series`` as a 1-D array.  The remaining rows use the sinh-stretched rule.

    Spike rows are evaluated in blocks of ``_BLOCK_ROWS`` in scratch arrays
    made once per call, in place, by the same operations in the same order as
    fresh arrays would take.  Each row is summed by itself and series rows are
    evaluated elementwise, so a row's value does not depend on the block size
    or the batch.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (c0, q, *row_args)))
    flat_c0, flat_q, *flat_args = (a.reshape(-1) for a in arrays)
    out = np.empty(flat_c0.shape)
    rule = _angular_rule(n, n_nodes)
    spike = flat_c0 < _ANGULAR_SWITCH * flat_q

    rows = np.flatnonzero(~spike)
    c0s, qs = flat_c0[rows], flat_q[rows]
    s = np.sqrt(c0s * (c0s + 4.0 * qs))
    A = 0.5 * (c0s + 2.0 * qs + s)
    h2 = qs / A  # q / A, not (a - s) / (2 q), which cancels when c0 >> q
    h2 *= h2
    out[rows] = rule.area * series(A, s, h2, *(arg[rows] for arg in flat_args))

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

    def series(A, s, h2):
        return A ** (-m / 2.0) * _hyp2f1_series(m / 2.0, m / 2.0 - n / 2.0 + 1.0, n / 2.0, h2)

    return _sphere_integral(c0, q, n, n_nodes, integrand, series)


def angular_flux_kernel(c0, q, t2, n: int, sigma: float, n_nodes: int):
    """Angular integral of (2 sigma R^2 - n t^2) D^{-(m+2)/2} over the sphere.

    R^2 = D - t^2 is the horizontal squared distance; t2 broadcasts with c0
    and q, so points at different elevations share one call.  The two terms
    cancel near t^2 = 2 sigma D / m, so they are combined before anything is
    summed.  On the spike rule that happens inside the integrand, node by
    node.  On series rows, with nu = m/2 + 1, the sphere means of D^{-nu} and
    D^{1-nu} are A^{-nu} F(nu, sigma + 2; n/2) and A^{1-nu} F(nu - 1, sigma + 1; n/2),
    writing F(a, b; c) = 2F1(a, b; c; h^2); the contiguous relation
    F(nu - 1, sigma + 1; c) = (1 - h^2) F(nu, sigma + 2; c)
    - (2 (sigma + 1) / c) h^2 F(nu, sigma + 2; c + 1) and s = A (1 - h^2)
    turn the mean into

        A^{-nu} ((2 sigma (s - t^2) - n t^2) F(nu, sigma + 2; n/2)
                 - (8 sigma (sigma + 1) / n) A h^2 F(nu, sigma + 2; n/2 + 1)),

    where the cancelling terms share one numerator.  Against 40-digit
    mpmath on n in {2, 3, 4, 5, 10}, sigma in {.05, .15, ..., .95}, 40
    offsets c0/q per pair log-uniform on each of [1/4, 6) and [6, 1e8], and
    t^2 uniform on [0, c0] or within 0.1% of the zero, series rows stay within 5.6e-15 of
    2 sigma Phi_m + (2 sigma + n) t^2 Phi_{m+2}, the size of the two terms,
    and the kernel within 6.7e-15 relative (1.8e-15 and 2.3e-15 for
    c0/q < 6).  Both are set at large A by the rounding of the exponent m/2,
    which costs log(A) ulps; so the flux takes the power A^{-m/2} and divides
    by A, as A^{-nu} would round its exponent once more (measured 1.0e-14).
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

    def series(A, s, h2, t2):
        mean = 2.0 * sigma * (s - t2) - n * t2
        mean /= A
        mean *= _hyp2f1_series(nu, sigma + 2.0, n / 2.0, h2)
        mean -= 8.0 * sigma * (sigma + 1.0) / n * h2 * _hyp2f1_series(nu, sigma + 2.0, n / 2.0 + 1.0, h2)
        mean *= A ** (-m / 2.0)
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
