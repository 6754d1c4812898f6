"""Angular sphere integrals against adaptive quadrature in the polar angle."""

import math

import pytest
from scipy.integrate import quad

from hardyhenon.quadrature import angular_flux_kernel, angular_kernel
from hardyhenon.specialfn import unit_sphere_area

N_NODES = 64  # the default angular node count of QuadratureConfig
RATIOS = (1e-8, 1e-4, 0.1, 0.3, 2.0)  # c0/q on both sides of the spike switch
CASES = [(n, sigma) for n in (2, 3, 5) for sigma in (0.25, 0.5, 0.75)]


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
