"""The inversion's weight-exponent map, its exponent biconditionals, and amplitude invariance."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyhenon.fraclap import power_profile
from hardyhenon.kelvin import (
    constant_invariance,
    kelvin_exponent,
    verify_equivalences,
)
from hardyhenon.params import derive_exponents, validate_params
from hardyhenon.specialfn import singular_constant

valid_params = st.builds(
    validate_params,
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1.01, max_value=8.0),
)


def _tie_free(params):
    """Reject draws sitting within an ulp-risky distance of a threshold.

    The two sides of each biconditional are algebraically identical but
    numerically distinct expressions, so adversarial inputs exactly on a
    threshold (or at denormal scale) can disagree by one rounding.  The
    contract is about generic draws; exact-tie behavior is covered by the
    dedicated binary-exact cases below.
    """
    from hardyhenon.params import derive_exponents as _de

    d = _de(params)
    thresholds = (d.serrin, d.sobolev_crit, d.hardy_sobolev_crit, d.thm11_upper)
    if any(abs(params.p - t) < 1e-9 * max(1.0, abs(t)) for t in thresholds):
        return False
    if abs(params.alpha) < 1e-9:
        return False
    if abs(params.alpha + 2.0 * params.sigma) < 1e-9:
        return False
    return True


generic_params = valid_params.filter(_tie_free)


class TestExponentMap:
    def test_reference_points(self):
        assert kelvin_exponent(validate_params(3, 0.5, 0.0, 2.0)).vartheta == pytest.approx(0.0, abs=1e-15)
        assert kelvin_exponent(validate_params(3, 0.5, 0.0, 1.8)).vartheta == pytest.approx(-0.4, rel=1e-12)

    def test_upper_threshold_maps_to_zero(self):
        n, sigma, alpha = 3, 0.5, -0.5
        p = (n + 2.0 * sigma + alpha) / (n - 2.0 * sigma)
        assert abs(kelvin_exponent(validate_params(n, sigma, alpha, p)).vartheta) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(params=valid_params)
    def test_involution_on_exponent(self, params):
        twice = kelvin_exponent(kelvin_exponent(params).mapped)
        assert twice.vartheta == pytest.approx(params.alpha, rel=1e-13, abs=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(params=valid_params)
    # p near 1, where rounding in vartheta is amplified by 1/(p-1)
    @example(params=validate_params(4, 0.1748456287916173, -0.33203125, 1.01))
    @example(params=validate_params(5, 0.02, 0.02, 1.0234375))
    @example(params=validate_params(3, 0.7965598661920834, -1.578125, 1.015625))
    def test_multiplier_argument_negates(self, params):
        d = derive_exponents(params)
        d_mapped = derive_exponents(kelvin_exponent(params).mapped)
        assert d_mapped.tau == pytest.approx(-d.tau, rel=1e-13, abs=1e-14)


class TestEquivalences:
    @settings(max_examples=500, deadline=None)
    @given(params=generic_params)
    def test_biconditionals_agree(self, params):
        for check in verify_equivalences(params):
            assert check.agree, check.name

    def test_critical_point_both_sides_false(self):
        params = validate_params(3, 0.5, 0.0, 2.0)
        checks = {c.name: c for c in verify_equivalences(params)}
        c = checks["p != (n+2s+2 vartheta)/(n-2s) <=> p != p_S(alpha)"]
        assert (c.lhs, c.rhs) == (False, False)


class TestConstantInvariance:
    def test_reference_point(self):
        assert constant_invariance(validate_params(3, 0.5, 0.0, 1.8)) < 1e-12

    def test_fixed_point_exact(self):
        # p = p_S(0) makes the map the identity; with these binary-exact
        # parameters the mapped weight is exactly zero again
        params = validate_params(3, 0.5, 0.0, 2.0)
        assert kelvin_exponent(params).vartheta == 0.0
        assert constant_invariance(params) == 0.0

    def test_small_admissible_sweep(self):
        rng = np.random.default_rng(42)
        found = 0
        while found < 20:
            n = int(rng.integers(2, 6))
            sigma = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(-2.0 * sigma + 0.05, 2.0))
            p = float(rng.uniform(1.05, 6.0))
            params = validate_params(n, sigma, alpha, p)
            if params.p <= derive_exponents(params).serrin:
                continue
            found += 1
            assert constant_invariance(params) < 1e-12

    def test_precondition_diagnostics_when_map_leaves_range(self):
        # p below the Serrin-type exponent puts the source outside the
        # amplitude's domain
        with pytest.raises(ValueError, match="p > "):
            constant_invariance(validate_params(3, 0.5, 0.0, 1.2))

    def test_inverted_exact_trace_is_exact_trace_of_mapped_problem(self):
        params = validate_params(3, 0.5, 0.2, 1.9)
        d = derive_exponents(params)
        mapped = kelvin_exponent(params).mapped
        d_mapped = derive_exponents(mapped)
        u = power_profile(d.beta, coefficient=singular_constant(params))
        u_mapped_want = power_profile(d_mapped.beta, coefficient=singular_constant(mapped))
        k = params.n - 2.0 * params.sigma
        for rho in (0.3, 1.0, 4.0):
            # the inverted trace rho^-(n - 2 sigma) u(1 / rho)
            a = rho ** -k * u.evaluate(np.array([1.0 / rho]))[0]
            b = u_mapped_want.evaluate(np.array([rho]))[0]
            assert a == pytest.approx(b, rel=1e-12)
