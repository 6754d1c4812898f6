"""Closed-form constants against independent oracles (40-digit mpmath, algebra)."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyhenon.specialfn import (
    classical_limit_constant,
    hypersingular_normalizer,
    kappa_sigma,
    lambda_multiplier,
    lambda_multiplier_detailed,
    log_gamma_signed,
    poisson_normalizer,
    singular_constant,
    unit_sphere_area,
)
from hardyhenon.params import validate_params


def ref_gamma(x):
    """Gamma(x), log|Gamma(x)| and the sign of Gamma(x) from 40-digit mpmath."""
    with mpmath.workdps(40):
        g = mpmath.gamma(mpmath.mpf(float(x)))
        return float(g), float(mpmath.log(abs(g))), (1 if g > 0 else -1)


class TestLogGamma:
    def test_factorials(self):
        for k, want in [(1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (8, 5040.0)]:
            got = log_gamma_signed(float(k)).value()
            assert got == pytest.approx(want, rel=1e-14)

    def test_half_integers(self):
        assert log_gamma_signed(0.5).value() == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert log_gamma_signed(1.5).value() == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)

    def test_reflection_negative_half(self):
        want = -2.0 * math.sqrt(math.pi)  # Gamma(-1/2)
        got = log_gamma_signed(-0.5)
        assert got.sign == -1
        assert got.value() == pytest.approx(want, rel=1e-13)

    def test_accuracy_against_mpmath(self):
        xs = np.concatenate([
            np.geomspace(1e-3, 0.4, 60),
            np.linspace(0.5, 170.0, 400),
        ])
        for x in xs:
            mine = log_gamma_signed(float(x))
            value, want, sign = ref_gamma(x)
            assert mine.sign == sign == 1
            assert mine.log_abs == pytest.approx(want, abs=1e-13 * max(1.0, abs(want)))
            if x <= 170.0:
                assert mine.value() == pytest.approx(value, rel=1e-13)

    def test_negative_axis_signs(self):
        for x in (-0.25, -1.3, -2.7, -5.5):
            got = log_gamma_signed(x)
            want = ref_gamma(x)[0]
            assert got.sign == (1 if want > 0 else -1)
            assert got.value() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("xs", [
        # past the overflow of Gamma at 171.62
        np.concatenate([np.linspace(171.62, 1e4, 60), np.geomspace(171.62, 1e4, 40)]),
        # below -171, where Gamma underflows: the sign alternates with floor(x)
        np.concatenate([np.arange(-171.5, -190.0, -1.0) + 0.25, np.linspace(-9999.5, -171.3, 61)]),
    ], ids=["large", "negative-underflow"])
    def test_outside_the_double_range_of_gamma(self, xs):
        # math.gamma cannot represent Gamma here; log|Gamma| holds to 3 ulp
        for x in xs:
            mine = log_gamma_signed(float(x))
            _, want, sign = ref_gamma(x)
            assert mine.sign == sign
            assert abs(mine.log_abs - want) <= 3 * math.ulp(want)

    def test_poles_flagged(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            res = log_gamma_signed(x)
            assert res.pole
            assert math.isinf(res.log_abs)


class TestLambdaMultiplier:
    def test_reference_value(self):
        # 2 * Gamma(1)^2 / Gamma(1/2)^2 = 2/pi
        assert lambda_multiplier(0.0, 3, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        sigma=st.floats(min_value=0.05, max_value=0.95),
        frac=st.floats(min_value=-0.99, max_value=0.99),
    )
    def test_even_in_argument(self, n, sigma, frac):
        tau = frac * (n - 2.0 * sigma) / 2.0
        a = lambda_multiplier(tau, n, sigma)
        b = lambda_multiplier(-tau, n, sigma)
        assert a == pytest.approx(b, rel=1e-12)

    def test_positive_on_admissible_strip(self):
        for n, sigma in ((2, 0.3), (3, 0.5), (5, 0.9)):
            half = (n - 2.0 * sigma) / 2.0
            for tau in np.linspace(-half + 0.01, half - 0.01, 21):
                assert lambda_multiplier(float(tau), n, sigma) > 0.0

    def test_denominator_pole_gives_flagged_zero(self):
        n, sigma = 3, 0.5
        res = lambda_multiplier_detailed((n - 2.0 * sigma) / 2.0, n, sigma)
        assert res.value == 0.0
        assert res.zero_via_pole

    def test_numerator_pole_gives_infinity(self):
        n, sigma = 3, 0.5
        res = lambda_multiplier_detailed(-(n + 2.0 * sigma) / 2.0, n, sigma)
        assert math.isinf(res.value)
        assert res.infinite_via_pole


class TestSingularConstant:
    def test_reference_point(self):
        params = validate_params(3, 0.5, 0.0, 2.0)
        assert singular_constant(params) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_second_point_against_gamma_oracle(self):
        # C = Lambda(-1/4)^{1/0.8} with Lambda assembled from stdlib lgamma
        n, sigma, p = 3, 0.5, 1.8
        tau = -0.25
        log_lam = (
            2.0 * sigma * math.log(2.0)
            + math.lgamma((n + 2 * sigma + 2 * tau) / 4)
            + math.lgamma((n + 2 * sigma - 2 * tau) / 4)
            - math.lgamma((n - 2 * sigma - 2 * tau) / 4)
            - math.lgamma((n - 2 * sigma + 2 * tau) / 4)
        )
        want = math.exp(log_lam) ** (1.0 / (p - 1.0))
        params = validate_params(n, sigma, 0.0, p)
        assert singular_constant(params) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "n, alpha, want",
        [
            (3, -0.5, 0.60303917622912660967),
            (3, 0.0, 0.60692866520657159057),
            (3, 0.5, 0.58921391111585607542),
            (4, -0.5, 0.99470651138648237878),
            (4, 0.0, 0.92605507916292821720),
            (4, 0.5, 0.81239207523544705834),
        ],
    )
    def test_near_classical_limit(self, n, alpha, want):
        # the criterion-4 cases at sigma = 0.999 with p midway between the
        # second-order thresholds; references from the Gamma-ratio formula
        # in 40-digit mpmath arithmetic at the same binary inputs
        p = 0.5 * ((n + alpha) / (n - 2.0) + (n + 2.0) / (n - 2.0))
        params = validate_params(n, 0.999, alpha, p)
        assert singular_constant(params) == pytest.approx(want, rel=1e-13)

    def test_precondition_diagnostics(self):
        with pytest.raises(ValueError, match="alpha > -2\\*sigma"):
            singular_constant(validate_params(3, 0.5, -1.2, 2.0))
        with pytest.raises(ValueError, match="p > "):
            singular_constant(validate_params(3, 0.5, 0.0, 1.2))

    @pytest.mark.parametrize("n, sigma, alpha, p, flow", [
        (7, 0.9171138422611018, -1.8299003669778384, 1.0012244109248665, "overflows"),
        (3, 0.5446343189057535, -1.0889930466790765, 1.0008979929178867, "underflows"),
    ])
    def test_out_of_range_amplitude_is_named(self, n, sigma, alpha, p, flow):
        # log C = log(Lambda)/(p-1) is 1264 and -1170: beyond the normal doubles
        with pytest.raises(ValueError, match=f"singular_constant {flow}"):
            singular_constant(validate_params(n, sigma, alpha, p))

    def test_positive_whenever_rate_is_admissible(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 50:
            n = int(rng.integers(2, 6))
            sigma = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(-2 * sigma + 0.01, 2 * sigma))
            lo = (n + alpha) / (n - 2 * sigma) + 0.01
            if lo >= 6.0:
                continue
            p = float(rng.uniform(lo, 6.0))
            params = validate_params(n, sigma, alpha, p)
            assert singular_constant(params) > 0.0
            count += 1


class TestNormalizers:
    def test_kappa_half_is_one(self):
        assert abs(kappa_sigma(0.5) - 1.0) < 1e-14

    def test_kappa_quarter_oracle(self):
        want = math.gamma(0.75) / (2.0 ** (-0.5) * math.gamma(0.25))
        assert kappa_sigma(0.25) == pytest.approx(want, rel=1e-13)

    def test_kappa_positive(self):
        for sigma in np.linspace(0.02, 0.98, 25):
            assert kappa_sigma(float(sigma)) > 0.0

    def test_poisson_normalizer_reference(self):
        assert poisson_normalizer(3, 0.5) == pytest.approx(1.0 / math.pi ** 2, rel=1e-13)

    def test_hypersingular_normalizer_reference(self):
        assert hypersingular_normalizer(3, 0.5) == pytest.approx(1.0 / math.pi ** 2, rel=1e-13)

    def test_normalizers_positive(self):
        for n in (2, 3, 4, 7):
            for sigma in (0.1, 0.5, 0.9):
                assert poisson_normalizer(n, sigma) > 0.0
                assert hypersingular_normalizer(n, sigma) > 0.0

    def test_memoized_values_are_bit_identical(self):
        for n in (2, 3, 10):
            assert unit_sphere_area(n) == unit_sphere_area.__wrapped__(n)
            for sigma in (0.05, 0.5, 0.95):
                assert kappa_sigma(sigma) == kappa_sigma.__wrapped__(sigma)
                for fn in (poisson_normalizer, hypersingular_normalizer):
                    assert fn(n, sigma) == fn.__wrapped__(n, sigma)

    def test_sphere_areas(self):
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


class TestClassicalLimit:
    def test_reference_value(self):
        assert classical_limit_constant(3, 0.0, 4.0) == pytest.approx((2.0 / 9.0) ** (1.0 / 3.0), rel=1e-13)

    def test_boundary_degeneracy_rejected(self):
        with pytest.raises(ValueError):
            classical_limit_constant(4, 0.0, 2.0)  # p at the lower threshold

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=6),
        alpha=st.floats(min_value=-1.9, max_value=1.9),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_algebraic_expansion(self, n, alpha, frac):
        lo = (n + alpha) / (n - 2.0)
        hi = (n + 2.0) / (n - 2.0)
        p = lo + frac * (hi - lo)
        c = classical_limit_constant(n, alpha, p)
        want = (2.0 + alpha) * ((n - 2.0) * p - n - alpha) / (p - 1.0) ** 2
        assert c ** (p - 1.0) == pytest.approx(want, rel=1e-10)

    def test_limit_is_linear_in_order_deficit(self):
        # the fractional multiplier Lambda = C^{p-1} approaches the
        # second-order one at rate O(1 - sigma); the measured slope for this
        # case is below 10
        n, alpha = 3, 0.5
        p = 0.5 * ((n + alpha) / (n - 2.0) + (n + 2.0) / (n - 2.0))
        want = (2.0 + alpha) * ((n - 2.0) * p - n - alpha) / (p - 1.0) ** 2

        def err(sigma):
            got = singular_constant(validate_params(n, sigma, alpha, p)) ** (p - 1.0)
            return abs(got - want) / want

        e3, e4 = err(0.999), err(0.9999)
        assert e3 / e4 == pytest.approx(10.0, rel=0.05)
        assert e3 / 1e-3 < 10.0
