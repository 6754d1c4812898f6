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
from hardyhenon.quadrature import _BLOCK_ROWS, _sphere_mean_series, angular_flux_kernel, angular_kernel
from hardyhenon.specialfn import singular_constant, unit_sphere_area
from hardyhenon.suite import FALL_TUPLES

N_NODES = 64  # the default angular node count of QuadratureConfig
# c0/q on both sides of the spike switch (0.25) and of the series switch (6)
RATIOS = (1e-8, 1e-4, 0.1, 0.3, 2.0, 6.0 * (1.0 - 1e-12), 6.0, 50.0, 1e4, 1e8)
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
    """The series rows' 2F1(mu/2, mu/2 + 1/2; n/2; z) up to the switch's z = 1/16,
    at the exponents the two kernels use: m/2, m/2 + 1, and m/2 + 2 with n + 2
    (the flux's cos g moment)."""
    m = n + 2.0 * sigma
    z = np.array([0.0, 1.0 / 32.0, 1.0 / 16.0])
    for dim, mu in ((n, m / 2.0), (n, m / 2.0 + 1.0), (n + 2, m / 2.0 + 2.0)):
        got = _sphere_mean_series(dim, mu, z)
        with mpmath.workdps(40):
            want = [float(mpmath.hyp2f1(mu / 2.0, mu / 2.0 + 0.5, dim / 2.0, x)) for x in z]
        assert np.allclose(got, want, rtol=2.0 * np.finfo(float).eps, atol=0.0), (dim, mu)


def mixed_rows(count, seed=5):
    """Offsets across the spike switch, flat rows, series rows and q = 0 rows, shuffled."""
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
