"""Shared quadrature machinery for the singular-integral and extension modules.

The one integrand is a power of the squared distance between two points,
and the workhorse is its sphere integral

    int_{S^{n-1}} D^{-mu} dw,    D = c0 + 2 q (1 - cos g),

with c0 >= 0 the squared offset between two radii (plus any elevation
squared) and q the product of the radii.  ``angular_kernel`` is
Phi_m = int D^{-m/2} dw; the flux kernel of the extension,
int (2 sigma R^2 - n t^2) D^{-m/2-1} dw with R^2 = D - t^2, is
2 sigma Phi_m - (2 sigma + n) t^2 Phi_{m+2}, so one call returns both
moments D^{-mu} and D^{-mu-1}.

Rows fall into two regimes by c0/q.  Below 1/4 the integrand is a spike of
width sqrt(c0/q) at g = 0; a sinh-stretched substitution resolves it
uniformly down to machine-scale offsets.  Every other row (q = 0 included)
is summed in closed form in the Gegenbauer radius h = q / A, where
s = sqrt(c0 (c0 + 4 q)) and A = (c0 + 2 q + s) / 2 make
D = A (1 - 2 h cos g + h^2) with h^2 <= _SERIES_Z_MAX = 0.3716.  Averaging
the generating function of the Gegenbauer polynomials (DLMF 18.12.4) over
the sphere, and a quadratic transformation (DLMF 15.8) of the result, give

    int_{S^{n-1}} D^{-mu} dw = |S^{n-1}| A^{-mu} 2F1(mu, mu - n/2 + 1; n/2; h^2),

whose parameters are positive for mu >= n/2, so its Taylor series in h^2
has positive terms; it is cut where they fall below 2^-54 (38-53 terms
for n <= 10).  ``_hyp2f1_sweep`` sums several such series, each on its own
row of arguments, in one Horner sweep: the moments here, and the three series
of the closed-form sphere profile (``extension.exact_sphere_profile``), cut at
1/2, or its direct series alone, cut at up to 15/16.

Against 40-digit mpmath (n in {2, 3, 4, 5, 10}, sigma in {.05, .15, ..., .95},
1200 rows per regime, see tests/test_quadrature.py) Phi_m is within 6.9e-15
relative on series rows and 1.25e-14 on spike rows.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specialfn import unit_sphere_area

#: Below this value of c0/q the sinh-stretched angular rule is used; at and
#: above it rows are summed by the 2F1 series in h^2, which is then at most
#: _SERIES_Z_MAX.
_ANGULAR_SWITCH = 0.25
_SERIES_Z_MAX = (2.0 / (_ANGULAR_SWITCH + 2.0
                        + math.sqrt(_ANGULAR_SWITCH * (_ANGULAR_SWITCH + 4.0)))) ** 2
#: Rows per block of the spike rule.  Each block makes its own (rows, nodes)
#: temporaries, 64 KB each at 64 angular nodes, so the memory does not grow
#: with the batch: a two-moment call over 20,000 spike rows peaks at 1.2 MB
#: (tracemalloc) at 64 nodes and 2.9 MB at 256, against 2.9 and 10.0 MB with
#: 512-row blocks.  The rule runs only when a radial rule is built, and the
#: PV and flux rules are cached per (n, sigma, cfg), so their warm
#: evaluations never reach it.
_BLOCK_ROWS = 128
#: Up to this many nodes ``_hyp2f1_sweep`` repeats its coefficient table to the rows' shape,
#: faster to ~2048 nodes (2 rows, one BLAS thread: 71 vs 103 us at 65, 485 vs 415 at 4096) but
#: terms x rows x nodes x 8 B; wider sweeps add a (rows, 1) column per term, so two moments
#: over 20,000 series rows peak at 2.1 MB (tracemalloc), not 17 MB.
_SWEEP_TABLE_NODES = 1024


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _orthonormal_pass(s, diag, off, p0):
    """Newton step p_n / p_n' and the sum of p_k^2, k < n, at the points s.

    p_k are the polynomials orthonormal for the weight whose Jacobi matrix
    has diagonal ``diag`` and off-diagonal ``off`` (with off[0] = 0 and
    off[n] the coefficient that carries p_{n-1} to p_n), and p_0 = ``p0``:
    s p_k = off[k+1] p_{k+1} + diag[k] p_k + off[k] p_{k-1}.
    """
    p_prev, p = np.zeros_like(s), np.full_like(s, p0)
    d_prev, d = np.zeros_like(s), np.zeros_like(s)
    total = np.zeros_like(s)
    for k in range(len(diag)):
        total += p * p
        x = s - diag[k]
        p_prev, p = p, (x * p - off[k] * p_prev) / off[k + 1]
        d_prev, d = d, (p_prev + x * d - off[k] * d_prev) / off[k + 1]
    return p / d, total


@lru_cache(maxsize=64)
def gauss_jacobi_01(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 s^beta f(s) ds, beta > -1; read-only arrays.

    The nodes are the eigenvalues of the Jacobi matrix of the polynomials
    orthonormal for s^beta on [0, 1] (Golub & Welsch, Math. Comp. 23, 1969),
    polished by two Newton steps on their three-term recurrence; the weights
    are the Christoffel numbers 1 / sum_{k<n} p_k(s)^2 at the polished nodes.
    Against 40-digit mpmath at n in {8, 64, 256} and beta in [-0.99, 0.99]
    the nodes are within 1.1e-16 absolute and the weights within 3.9e-12
    relative, largest at the ends of the interval (tests/test_quadrature.py).
    """
    # the recurrence of P_k^{(0, beta)}(2 s - 1), with c = 2 k + beta:
    # off[k] = k (k + beta) / (c sqrt((c + 1)(c - 1))) and
    # diag[k] = ((k + beta)(k + beta + 1) + k (k + 1)) / (c (c + 2)), forms
    # without a difference, so they keep their relative accuracy as beta -> -1
    k = np.arange(n + 1.0)
    c = 2.0 * k + beta
    off = np.zeros(n + 1)
    off[1:] = k[1:] * (k[1:] + beta) / (c[1:] * np.sqrt((c[1:] + 1.0) * (c[1:] - 1.0)))
    diag = np.empty(n)
    diag[0] = (beta + 1.0) / (beta + 2.0)  # the k = 0 limit, also at beta = 0
    k, c = k[1:n], c[1:n]
    diag[1:] = ((k + beta) * (k + beta + 1.0) + k * (k + 1.0)) / (c * (c + 2.0))
    # eigvalsh reads the lower triangle only; filling it in place keeps the
    # transient memory to the matrix and LAPACK's copy of it
    J = np.zeros((n, n))
    J.flat[::n + 1] = diag
    J.flat[n::n + 1] = off[1:n]
    s = np.linalg.eigvalsh(J)
    p0 = math.sqrt(beta + 1.0)  # 1 / sqrt(int_0^1 s^beta ds)
    for _ in range(2):
        s -= _orthonormal_pass(s, diag, off, p0)[0]
    w = 1.0 / _orthonormal_pass(s, diag, off, p0)[1]
    for a in (s, w):
        a.flags.writeable = False
    return s, w


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


def _hyp2f1_sweep(rows, z, z_max: float = _SERIES_Z_MAX) -> np.ndarray:
    """2F1(a, b; c; z), a, b, c > 0, for each (a, b, c) of ``rows`` on its row of z (broadcast
    to (len(rows), nodes)), by one Horner sweep of positive terms, so each sum keeps its
    relative accuracy on 0 <= z <= z_max < 1; entries past z_max are finite truncated sums the
    caller must discard.  Leading zeros pad shorter coefficient lists and leave a sum on z >= 0
    at exactly 0, so each row is bit-identical to a sweep of its own.
    """
    coefs = [_hyp2f1_coefficients(a, b, c, z_max) for a, b, c in rows]
    size = max(map(len, coefs))
    table = np.array([(0.0,) * (size - len(c)) + c[::-1] for c in coefs]).T[:, :, None]
    z = np.ascontiguousarray(np.broadcast_to(z, (len(coefs), np.shape(z)[-1])))
    if z.shape[1] <= _SWEEP_TABLE_NODES:
        table = np.repeat(table, z.shape[1], axis=2)
    f = np.broadcast_to(table[0], z.shape).copy()
    for coef in table[1:]:
        f *= z
        f += coef
    return f


def _sphere_integral(c0, q, n: int, mu: float, n_nodes: int, moments: int = 1):
    """The moments int_{S^{n-1}} D^{-mu-k} dw, k < ``moments``, with
    D = c0 + 2 q (1 - cos g); c0 and q broadcast together, and each moment
    is returned in their broadcast shape.

    Rows with c0 >= _ANGULAR_SWITCH * q (q = 0 included) are summed by the
    closed form |S^{n-1}| A^{-mu-k} 2F1(mu + k, mu + k - n/2 + 1; n/2; h^2).
    A^{-mu-k} is A^{-mu} divided by A once per k: a power of A rounds its
    exponent, which costs log(A) ulps, and this way it is rounded once.

    The remaining rows use the sinh-stretched rule, g = delta sinh(xi) with
    delta = sqrt(c0 / q) and xi from 0 to arcsinh(pi / delta), evaluated
    ``_BLOCK_ROWS`` rows at a time.  The rule forms D^{-mu} w times the
    Jacobian and the node weights, w = sin^{n-2} g being the polar weight of
    the sphere, and each further moment divides that by D once more.  Each
    row is summed by itself and series rows are evaluated elementwise, so a
    row's value does not depend on the block size or the batch.
    """
    arrays = np.broadcast_arrays(np.asarray(c0, dtype=float), np.asarray(q, dtype=float))
    flat_c0, flat_q = (a.reshape(-1) for a in arrays)
    out = np.empty((moments, flat_c0.size))
    spike = flat_c0 < _ANGULAR_SWITCH * flat_q

    rows = np.flatnonzero(~spike)
    c0s, qs = flat_c0[rows], flat_q[rows]
    s = np.sqrt(c0s * (c0s + 4.0 * qs))
    A = 0.5 * (c0s + 2.0 * qs + s)
    h2 = qs / A  # q / A, not (a - s) / (2 q), which cancels when c0 >> q
    h2 *= h2
    power = A ** -mu
    series = _hyp2f1_sweep([(mu + k, mu + k - n / 2.0 + 1.0, n / 2.0) for k in range(moments)], h2)
    for k in range(moments):
        if k:
            power /= A
        out[k, rows] = unit_sphere_area(n) * (power * series[k])

    xg, wg = gauss_legendre(n_nodes)
    x01, w01 = (xg + 1.0) / 2.0, wg / 2.0
    spike_rows = np.flatnonzero(spike)
    for start in range(0, spike_rows.size, _BLOCK_ROWS):
        rows = spike_rows[start:start + _BLOCK_ROWS]
        c0s, qs = flat_c0[rows, None], flat_q[rows, None]
        delta = np.sqrt(c0s / qs)
        xi_max = np.arcsinh(math.pi / delta)
        xi = xi_max * x01
        jac = np.cosh(xi) * delta * xi_max
        # sin(g/2) = 2 tau / (1 + tau^2) with tau = tan(g/4): numpy's float64
        # tangent is vectorized where its sine is a scalar loop
        tau = np.tan(np.sinh(xi) * delta * 0.25)
        s2 = (tau * 2.0 / (tau * tau + 1.0)) ** 2
        # sin^2 g = 4 sin^2(g/2) cos^2(g/2): one tangent per node
        w = (4.0 * s2 * (1.0 - s2)) ** ((n - 2) / 2.0)
        D = 4.0 * qs * s2 + c0s
        f = D ** -mu * w * jac * w01
        for k in range(moments):
            if k:
                f /= D
            out[k, rows] = f.sum(axis=1) * unit_sphere_area(n - 1)

    return tuple(moment.reshape(arrays[0].shape) for moment in out)


def angular_kernel(c0, q, n: int, m: float, n_nodes: int):
    """Vectorized Phi_m(c0, q) = int_{S^{n-1}} D^{-m/2} dw; c0 and q broadcast together."""
    return _sphere_integral(c0, q, n, m / 2.0, n_nodes)[0]


def angular_flux_kernel(c0, q, t2, n: int, sigma: float, n_nodes: int):
    """Angular integral of (2 sigma R^2 - n t^2) D^{-(m+2)/2} over the sphere.

    R^2 = D - t^2 is the horizontal squared distance, so the integrand is
    2 sigma D^{-m/2} - (2 sigma + n) t^2 D^{-m/2-1}, and the kernel is
    2 sigma Phi_m - (2 sigma + n) t^2 Phi_{m+2}, both moments from one sphere
    integral; t2 broadcasts with c0 and q.

    The two terms cancel near t^2 = 2 sigma D / m, and there the kernel's
    relative error is the conditioning of a difference at its zero, so it is
    measured against the size of the two terms, 2 sigma Phi_m
    + (2 sigma + n) t^2 Phi_{m+2}: on the rows of the module docstring, with
    t^2 uniform on [0, c0] or within 0.1% of the zero, it is within 5.0e-15
    of that size on series rows and 9.6e-15 on spike rows.  The cancellation
    does not reach the Neumann flux.  Its samples amplify kernel errors by
    about t^{-2 sigma}: at (n, sigma, alpha) = (2, .75, .75), r = 1, putting
    the 30-digit value in every kernel row moves the smallest-t samples by
    about 1e-9 absolute (3e-8 relative), while summing the two terms in one
    numerator, node by node, moves them by 3.8e-11.
    """
    m = n + 2.0 * sigma
    phi_m, phi_m2 = _sphere_integral(c0, q, n, m / 2.0, n_nodes, moments=2)
    return 2.0 * sigma * phi_m - (2.0 * sigma + n) * t2 * phi_m2


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
