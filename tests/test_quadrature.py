"""Angular sphere integrals against adaptive quadrature in the polar angle,
their 2F1 series against mpmath, and the closed-form far-field tail of the
radial quadratures."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hardyhenon import quadrature
from hardyhenon.extension import neumann_flux, poisson_extend_radial
from hardyhenon.fraclap import QuadratureConfig, frac_laplacian_radial, power_profile
from hardyhenon.params import derive_exponents, validate_params
from hardyhenon.quadrature import (
    _BLOCK_ROWS,
    _SERIES_Z_MAX,
    _hyp2f1_series,
    angular_flux_kernel,
    angular_kernel,
)
from hardyhenon.specialfn import singular_constant, unit_sphere_area
from hardyhenon.suite import FALL_TUPLES

N_NODES = 64  # the default angular node count of QuadratureConfig
# c0/q on both sides of the switch (0.25) between the spike rule and the series
RATIOS = (1e-8, 1e-4, 0.1, 0.25 * (1.0 - 1e-12), 0.25, 0.3, 2.0, 50.0, 1e4, 1e8)
# n = 4, 6, 10 take the exponent 1, 2, 4 paths of the spike weight (4 s2 (1 - s2))^{(n-2)/2}
CASES = [(n, sigma) for n in (2, 3, 4, 5, 6, 10) for sigma in (0.25, 0.5, 0.75)]


def sphere_reference(c0, q, n, f):
    """int_{S^{n-1}} f(D) dw by adaptive quadrature over the polar angle g.

    D = c0 + 2 q (1 - cos g) is formed as c0 + 4 q sin^2(g/2), which keeps
    its relative accuracy at the tiny offsets inside the spike.
    """
    if q == 0.0:
        return unit_sphere_area(n) * f(c0)
    spike = math.sqrt(c0 / q)
    points = [b for b in (spike, 10.0 * spike, 100.0 * spike) if b < math.pi]
    val, _ = quad(
        lambda g: math.sin(g) ** (n - 2) * f(c0 + 4.0 * q * math.sin(g / 2.0) ** 2),
        0.0, math.pi, points=points, limit=400, epsabs=0.0, epsrel=1e-13,
    )
    return unit_sphere_area(n - 1) * val


def offsets():
    yield from ((ratio, 1.0) for ratio in RATIOS)
    yield 0.7, 0.0


@pytest.mark.parametrize("n,sigma", CASES)
def test_angular_kernel(n, sigma):
    m = n + 2.0 * sigma
    for c0, q in offsets():
        got = float(angular_kernel(c0, q, n, m, N_NODES))
        want = sphere_reference(c0, q, n, lambda D: D ** (-m / 2.0))
        assert got == pytest.approx(want, rel=1e-12), (c0, q)


@pytest.mark.parametrize("n,sigma", CASES)
def test_angular_flux_kernel(n, sigma):
    m = n + 2.0 * sigma
    for c0, q in offsets():
        t2 = c0  # rho = x: the whole offset is elevation, as at the flux spike
        got = float(angular_flux_kernel(c0, q, t2, n, sigma, N_NODES))
        want = sphere_reference(
            c0, q, n, lambda D: (2.0 * sigma * (D - t2) - n * t2) * D ** (-(m + 2.0) / 2.0)
        )
        assert got == pytest.approx(want, rel=1e-12), (c0, q)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("sigma", [0.05, 0.5, 0.95])
def test_hyp2f1_series_against_mpmath(n, sigma):
    """The series rows' 2F1(a, b; c; h^2) up to the switch's h^2 = _SERIES_Z_MAX,
    at the parameters of the two moments the kernels use,
    (mu + k, mu + k - n/2 + 1; n/2) with mu = m/2 and k = 0, 1."""
    m = n + 2.0 * sigma
    h2 = np.array([0.0, _SERIES_Z_MAX / 2.0, _SERIES_Z_MAX])
    for a, b, c in ((m / 2.0, sigma + 1.0, n / 2.0), (m / 2.0 + 1.0, sigma + 2.0, n / 2.0)):
        got = _hyp2f1_series(a, b, c, h2)
        with mpmath.workdps(40):
            want = [float(mpmath.hyp2f1(a, b, c, x)) for x in h2]
        assert np.allclose(got, want, rtol=2.0 * np.finfo(float).eps, atol=0.0), (a, b, c)


def closed_form_reference(c0, q, t2, n, sigma):
    """Kernel, flux and the flux's scale 2 sigma Phi_m + (2 sigma + n) t^2 Phi_{m+2}
    at 40 digits, from the Gegenbauer closed form of each term's sphere mean."""
    with mpmath.workdps(40):
        c0, q, t2, sigma = (mpmath.mpf(x) for x in (c0, q, t2, sigma))
        m = n + 2 * sigma
        s = mpmath.sqrt(c0 * (c0 + 4 * q))
        A = (c0 + 2 * q + s) / 2
        h2 = (q / A) ** 2
        half_n = mpmath.mpf(n) / 2
        area = 2 * mpmath.pi ** half_n / mpmath.gamma(half_n)

        def phi(mu):  # int_{S^{n-1}} D^{-mu} dw
            return area * A ** -mu * mpmath.hyp2f1(mu, mu - half_n + 1, half_n, h2)

        lead, tail = 2 * sigma * phi(m / 2), (2 * sigma + n) * t2 * phi(m / 2 + 1)
        return float(phi(m / 2)), float(lead - tail), float(lead + tail)


#: c0/q range of each regime's rows and the bounds of the kernel's relative
#: error and of the flux's error over its two terms' size
REGIMES = {
    "series": ((0.25, 1e8), 1e-14, 2e-14),
    "spike": ((1e-10, 0.25), 3e-14, 2e-14),
}


def check_rows_against_closed_form(regime, n):
    """One regime's rows against the 40-digit closed form: c0/q log-uniform on
    the regime's range, t^2 uniform on [0, c0] and within 0.1% of the flux
    numerator's zero 2 sigma c0 / (2 sigma + n).  Near that zero the flux's
    relative error measures its conditioning, so it is bounded against the
    size of its two terms."""
    (lo, hi), kernel_tol, flux_tol = REGIMES[regime]
    rng = np.random.default_rng(17 + n if regime == "series" else 71 + n)
    for sigma in np.arange(0.05, 1.0, 0.1):
        q = rng.uniform(0.1, 3.0, 24)
        c0 = q * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 24)
        if regime == "series":  # the switch itself, and q = 0
            c0[0], q[-1] = 0.25 * q[0], 0.0
        zero = 2.0 * sigma / (2.0 * sigma + n) * c0
        t2 = np.where(np.arange(24) % 2 == 0, c0 * rng.uniform(0.0, 1.0, 24),
                      zero * (1.0 + rng.uniform(-1e-3, 1e-3, 24)))
        kernel = angular_kernel(c0, q, n, n + 2.0 * sigma, N_NODES)
        flux = angular_flux_kernel(c0, q, t2, n, sigma, N_NODES)
        for row in range(24):
            k_ref, f_ref, scale = closed_form_reference(c0[row], q[row], t2[row], n, sigma)
            assert abs(kernel[row] - k_ref) <= kernel_tol * k_ref, (sigma, c0[row], q[row])
            assert abs(flux[row] - f_ref) <= flux_tol * scale, (sigma, c0[row], q[row], t2[row])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
def test_series_rows_against_closed_form(n):
    check_rows_against_closed_form("series", n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
def test_spike_rows_against_closed_form(n):
    check_rows_against_closed_form("spike", n)


def mixed_rows(count, seed=5):
    """Offsets on both sides of the switch, q = 0 rows among them, shuffled."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 3.0, count)
    c0 = q * 10.0 ** rng.uniform(-10.0, 3.0, count)
    q[rng.random(count) < 0.05] = 0.0
    return c0, q, c0 * rng.uniform(0.0, 1.0, count)


def kernel_call(kind, n, c0, q, t2):
    sigma = 0.75
    if kind == "angular":
        return angular_kernel(c0, q, n, n + 2.0 * sigma, N_NODES)
    return angular_flux_kernel(c0, q, t2, n, sigma, N_NODES)


class TestBatchInvariance:
    """A batch gives each row the value it has alone, across block edges."""

    COUNT = 2 * _BLOCK_ROWS + 452
    LONG_COUNT = 3 * _BLOCK_ROWS + 77

    @pytest.mark.parametrize("kind", ["angular", "flux"])
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_block_size_changes_no_bit(self, monkeypatch, kind, n):
        c0, q, t2 = mixed_rows(self.LONG_COUNT, seed=n)
        batch = kernel_call(kind, n, c0, q, t2)
        for rows in (1, 37, 4 * _BLOCK_ROWS):
            monkeypatch.setattr(quadrature, "_BLOCK_ROWS", rows)
            assert np.array_equal(batch, kernel_call(kind, n, c0, q, t2)), rows

    def test_errstate_holds_in_multi_block_call(self):
        c0, q, _ = mixed_rows(self.LONG_COUNT)
        c0[np.flatnonzero(c0 < quadrature._ANGULAR_SWITCH * q)[-1]] = 0.0  # a spike row, delta = 0
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            angular_kernel(c0, q, 3, 4.0, N_NODES)

    def test_angular_kernel(self):
        c0, q, _ = mixed_rows(self.COUNT)
        batch = angular_kernel(c0, q, 5, 5.5, N_NODES)
        rows = np.array([angular_kernel(a, b, 5, 5.5, N_NODES) for a, b in zip(c0, q)])
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15

    def test_angular_flux_kernel(self):
        c0, q, t2 = mixed_rows(self.COUNT)
        batch = angular_flux_kernel(c0, q, t2, 4, 0.75, N_NODES)
        rows = np.array([angular_flux_kernel(a, b, c, 4, 0.75, N_NODES)
                         for a, b, c in zip(c0, q, t2)])
        assert np.max(np.abs(batch - rows) / np.abs(rows)) <= 1e-15


class TestTailCutoff:
    """The closed-form [R, inf) piece makes the result independent of R.

    Moving R from 1e3 to 1e5 radii hands four decades of the far field from
    the closed form to the far log zone; every closed-form tail goes through
    ``quadrature._power_tail``.  Worst measured: 1.7e-14 (PV), 2.6e-15
    (extension value), 1.4e-14 (flux).
    """

    NEAR, FAR = QuadratureConfig(tail_cutoff=1e3), QuadratureConfig(tail_cutoff=1e5)
    TOL = 1e-11

    @pytest.fixture(params=FALL_TUPLES + [(10, 0.05, 0.0, 1.3)], ids=str)
    def case(self, request):
        params = validate_params(*request.param)
        return params, power_profile(derive_exponents(params).beta, singular_constant(params))

    def agree(self, evaluate):
        near, far = evaluate(self.NEAR), evaluate(self.FAR)
        assert abs(near - far) <= self.TOL * abs(far)

    def test_pv_operator(self, case):
        params, trace = case
        self.agree(lambda cfg: frac_laplacian_radial(trace, 1.3, params, cfg))

    def test_extension_value(self, case):
        params, trace = case
        self.agree(lambda cfg: poisson_extend_radial(trace, (1.3, 0.4), params.n, params.sigma, cfg))

    def test_neumann_flux(self, case):
        params, trace = case
        self.agree(lambda cfg: neumann_flux(trace, 1.3, params, cfg=cfg).value)
