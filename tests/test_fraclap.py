"""Principal-value quadrature of the nonlocal operator on radial profiles."""

import math
import warnings

import numpy as np
import pytest

from hardyhenon import specialfn
from hardyhenon.fraclap import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureError,
    RadialProfile,
    _ENDS,
    _INNER_CUTOFF,
    _PV_HALF_WIDTH,
    _frac_laplacian_raw,
    _pv_rule,
    check_Lsigma_membership,
    frac_laplacian_radial,
    power_profile,
    verify_fall_identity,
)
from hardyhenon.params import validate_params
from hardyhenon.quadrature import _power_tail, angular_kernel, tail_moment_coefficient
from hardyhenon.specialfn import lambda_multiplier, unit_sphere_area

P352 = validate_params(3, 0.5, 0.0, 2.0)


def reference_power_profile(exponent, coefficient=1.0):
    """The former ``power_profile``: the power scaled into a new array."""
    return RadialProfile(
        evaluate=lambda r: coefficient * np.asarray(r, dtype=float) ** (-exponent),
        inner_exponent=exponent,
        outer_exponent=exponent,
    )


def reference_raw(profile, r, n, sigma, cfg):
    """The former ``_frac_laplacian_raw``: one profile evaluation for each of
    u(r), u(rho0), u(R) and the rule's nodes."""
    rule = _pv_rule(n, sigma, cfg)
    u = profile.evaluate
    rho0 = _INNER_CUTOFF * (1.0 - _PV_HALF_WIDTH) * r
    R = cfg.tail_cutoff * r
    a, b = profile.inner_exponent, profile.outer_exponent
    try:
        k0 = rule.k0 * r ** (-n - 2.0 * sigma)
        ur = float(u(np.array([r]))[0])
        ua = float(u(np.array([rho0]))[0]) * rho0 ** a
        inner = k0 * (ur * rho0 ** n / n - ua * rho0 ** (n - a) / (n - a))
        ub = float(u(np.array([R]))[0]) * R ** b
        A = tail_moment_coefficient(n, sigma, r * r, 0.0)
        tail = unit_sphere_area(n) * (
            ur * _power_tail(R, 0.0, sigma, 1.0, A) - ub * _power_tail(R, b, sigma, 1.0, A)
        )
    except OverflowError as exc:
        raise ValueError(f"the closed-form ends overflow a double at r={r}") from exc
    total = r ** (-2.0 * sigma) * float(rule.weight @ (ur - u(r * rule.nodes[_ENDS:])))
    return total + (inner + tail)


def counting(profile):
    """``profile`` with every array its ``evaluate`` receives recorded."""
    calls = []

    def ev(x):
        calls.append(x)
        return profile.evaluate(x)

    return RadialProfile(ev, profile.inner_exponent, profile.outer_exponent), calls


class TestMembership:
    def test_inverse_radius_in_three_dims(self):
        assert check_Lsigma_membership(power_profile(1.0), 3, 0.5)

    def test_origin_divergence_rejected(self):
        assert not check_Lsigma_membership(power_profile(4.0), 3, 0.5)

    def test_constants_always_admissible(self):
        for n in (2, 3, 5):
            for sigma in (0.1, 0.5, 0.9):
                assert check_Lsigma_membership(power_profile(0.0), n, sigma)

    def test_growth_beyond_kernel_decay_rejected(self):
        assert not check_Lsigma_membership(power_profile(-1.5), 3, 0.5)  # u ~ r^{1.5}


class TestReducedKernel:
    """The PV operator's kernel rho^{n-1} Phi_m((r - rho)^2, r rho), through its
    angular factor Phi_m."""

    @staticmethod
    def phi(r, rho, n, sigma, nodes=QuadratureConfig().nodes_angular):
        return float(angular_kernel((r - rho) ** 2, r * rho, n, n + 2.0 * sigma, nodes))

    def test_homogeneity(self):
        for n, sigma in ((2, 0.3), (3, 0.5), (4, 0.75)):
            k1 = self.phi(1.0, 1.7, n, sigma)
            k2 = self.phi(2.0, 3.4, n, sigma)
            assert k2 / k1 == pytest.approx(2.0 ** (-n - 2.0 * sigma), rel=1e-10)

    def test_angular_self_convergence_two_dims(self):
        for rho in (0.9, 0.999, 1.3):
            a = self.phi(1.0, rho, 2, 0.4, nodes=32)
            b = self.phi(1.0, rho, 2, 0.4, nodes=64)
            assert a == pytest.approx(b, rel=1e-10)

    def test_far_field_matches_tail_model(self):
        # Phi_m ~ |S^{n-1}| rho^{-m} for rho >> r
        n, sigma = 3, 0.5
        for rho in (1e3, 1e4):
            got = self.phi(1.0, rho, n, sigma)
            want = unit_sphere_area(n) * rho ** (-n - 2.0 * sigma)
            assert got == pytest.approx(want, rel=5e-6)


class TestOperator:
    def test_inverse_radius_reference(self):
        got = frac_laplacian_radial(power_profile(1.0), 1.0, P352)
        assert got == pytest.approx(2.0 / math.pi, rel=1e-9)

    def test_annihilates_constants(self):
        prof = power_profile(0.0, 3.3)
        for r in (0.5, 1.0, 2.0):
            assert abs(frac_laplacian_radial(prof, r, P352)) < 1e-9 * 3.3

    def test_homogeneous_scaling(self):
        # every radius uses the rule built at r = 1, with nodes r rho; what is
        # left is the rounding of u(r) - u(rho) next to rho = r, which the
        # cancelling odd part of the symmetric zone amplifies (2.5e-11 measured)
        prof = power_profile(0.8)
        v1 = frac_laplacian_radial(prof, 1.0, P352)
        for r in (0.5, 1.0, 2.0, 3.0):
            got = frac_laplacian_radial(prof, r, P352)
            assert got == pytest.approx(r ** (-0.8 - 1.0) * v1, rel=1e-10), r

    def test_linearity(self):
        cfg = QuadratureConfig(tail_cutoff=1e5)
        u = power_profile(0.8)
        v = power_profile(1.2)
        combo = RadialProfile(evaluate=lambda r: 2.0 * u.evaluate(r) + 3.0 * v.evaluate(r),
                              inner_exponent=1.2, outer_exponent=0.8)
        lhs = frac_laplacian_radial(combo, 1.3, P352, cfg)
        rhs = 2.0 * frac_laplacian_radial(u, 1.3, P352, cfg) + 3.0 * frac_laplacian_radial(
            v, 1.3, P352, cfg
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_matches_multiplier_across_orders(self):
        for n, sigma, beta in ((2, 0.3, 0.5), (3, 0.25, 0.4), (4, 0.75, 1.1), (5, 0.6, 1.8)):
            params = validate_params(n, sigma, 0.0, 2.0)
            tau = (n - 2.0 * sigma) / 2.0 - beta
            got = frac_laplacian_radial(power_profile(beta), 1.0, params)
            assert got == pytest.approx(lambda_multiplier(tau, n, sigma), rel=1e-6)

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError, match="integrability"):
            frac_laplacian_radial(power_profile(4.0), 1.0, P352)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, r):
        # inf once raised ZeroDivisionError and nan returned nan
        with pytest.raises(ValueError, match="radius r must be finite and positive"):
            frac_laplacian_radial(power_profile(1.0), r, P352)

    def test_convergence_report(self):
        value = frac_laplacian_radial(power_profile(1.0), 1.0, P352, convergence_tol=1e-6)
        assert value == pytest.approx(2.0 / math.pi, rel=1e-9)
        with pytest.raises(QuadratureError) as err:
            frac_laplacian_radial(power_profile(1.0), 1.0, P352, convergence_tol=1e-16)
        assert err.value.estimate > 1e-16


class TestRuleCache:
    """The PV operator's radial rule is built once per (n, sigma, cfg) at r = 1."""

    def test_cold_and_warm_cache_agree_bitwise(self):
        prof = power_profile(0.8)
        _pv_rule.cache_clear()
        cold = frac_laplacian_radial(prof, 1.3, P352)
        for r in (0.5, 2.0):
            frac_laplacian_radial(prof, r, P352)
        frac_laplacian_radial(prof, 1.0, validate_params(4, 0.75, -0.5, 1.9))
        assert frac_laplacian_radial(prof, 1.3, P352) == cold
        info = _pv_rule.cache_info()
        assert (info.misses, info.hits) == (2, 3)

    def test_halving_check_keys_its_own_rule(self):
        _pv_rule.cache_clear()
        frac_laplacian_radial(power_profile(1.0), 1.0, P352, convergence_tol=1e-6)
        assert _pv_rule.cache_info().misses == 2

    def test_second_radius_computes_no_log_gamma(self, monkeypatch):
        prof = power_profile(0.8)
        frac_laplacian_radial(prof, 1.0, P352)
        calls = []
        log_gamma = specialfn.log_gamma_signed
        monkeypatch.setattr(specialfn, "log_gamma_signed", lambda x: calls.append(x) or log_gamma(x))
        frac_laplacian_radial(prof, 2.0, P352)
        assert calls == []

    def test_cached_arrays_are_read_only(self):
        rule = _pv_rule(3, 0.5, QuadratureConfig())
        for a in (rule.nodes, rule.weight):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


#: 25 decades from 1e-12 to 1e12, and radii whose products with the nodes round
SWEEP_RADII = [10.0 ** k for k in range(-12, 13)] + [0.7, 1.3, 3.0]
OVERFLOW_RADII = [1e-300, 1e-100, 1e300]
CONFIGS = {"default": DEFAULT_CONFIG, "halved": DEFAULT_CONFIG.halved()}


class TestSingleEvaluation:
    """The profile is evaluated once per rule evaluation, on one array, and
    every value is the one the former four evaluations gave, to the bit."""

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_power_profiles_match_reference_bitwise(self, n, cfg):
        for sigma in (0.05, 0.2, 0.5, 0.75, 0.95):
            for beta in (0.3, (n - 2.0 * sigma) / 2.0, n - 0.5):
                new, old = power_profile(beta, 1.7), reference_power_profile(beta, 1.7)
                for r in SWEEP_RADII:
                    got = _frac_laplacian_raw(new, r, n, sigma, cfg)
                    assert got == reference_raw(old, r, n, sigma, cfg), (sigma, beta, r)

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("kind", ["combined", "kelvin"])
    def test_derived_profiles_match_reference_bitwise(self, kind, cfg):
        def make(power):
            if kind == "combined":
                u, v = power(0.8), power(1.2, 3.0)
                return RadialProfile(evaluate=lambda r: 2.0 * u.evaluate(r) - 0.3 * v.evaluate(r),
                                     inner_exponent=1.2, outer_exponent=0.8)
            # the Kelvin inversion r^-(n - 2 sigma) u(1 / r) at n = 3, sigma = 1/2
            u = power(0.8, 2.0)
            return RadialProfile(evaluate=lambda r: np.asarray(r, dtype=float) ** -2.0 * u.evaluate(1.0 / r),
                                 inner_exponent=1.2, outer_exponent=1.2)

        new, old = make(power_profile), make(reference_power_profile)
        for r in SWEEP_RADII:
            assert _frac_laplacian_raw(new, r, 3, 0.5, cfg) == reference_raw(old, r, 3, 0.5, cfg), r

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("r", OVERFLOW_RADII)
    def test_overflow_radii_raise_as_reference(self, r, cfg):
        with pytest.raises(ValueError) as want:
            reference_raw(reference_power_profile(1.25), r, 3, 0.5, cfg)
        with pytest.raises(ValueError) as got:
            _frac_laplacian_raw(power_profile(1.25), r, 3, 0.5, cfg)
        assert str(got.value) == str(want.value)
        assert type(got.value.__cause__) is type(want.value.__cause__) is OverflowError

    @pytest.mark.parametrize("tol, calls", [(None, 1), (1.0, 2)])
    def test_one_evaluate_call_per_rule_evaluation(self, tol, calls):
        prof, seen = counting(power_profile(0.8))
        value = frac_laplacian_radial(prof, 1.3, P352, convergence_tol=tol)
        assert value == frac_laplacian_radial(power_profile(0.8), 1.3, P352)
        assert len(seen) == calls
        for x, cfg in zip(seen, CONFIGS.values()):
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
            # r, rho0 and R, then the rule's nodes, all at r = 1.3
            assert np.array_equal(x, 1.3 * _pv_rule(3, 0.5, cfg).nodes)
            assert x[:_ENDS].tolist() == [1.3, 5e-9 * 1.3, cfg.tail_cutoff * 1.3]

    @pytest.mark.parametrize("r", OVERFLOW_RADII)
    def test_overflow_raises_before_the_profile_is_evaluated(self, r):
        prof, seen = counting(power_profile(1.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="closed-form ends overflow a double"):
                frac_laplacian_radial(prof, r, P352)
        assert seen == []

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_power_profile_leaves_its_input_alone(self, r):
        x = np.array([r, 2.0 * r])
        for exponent in (1.0, -1.0, 0.0, 0.5, -2.0):
            power_profile(exponent, 3.0).evaluate(x)
            assert x.tolist() == [r, 2.0 * r]
        assert power_profile(2.0, 3.0)(2.0) == 0.75


class TestConfig:
    @pytest.mark.parametrize("name", ["nodes_radial", "nodes_angular"])
    @pytest.mark.parametrize("count", [4, 4097, 10 ** 20])
    def test_node_range_refused_by_name(self, name, count):
        # 1e20 once ended in an OverflowError inside numpy's leggauss, and
        # 3e6 asked for 65.5 TiB; the refusal comes before any rule is built
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[8, 4096\], got {count}$"):
            QuadratureConfig(**{name: count})


class TestFallIdentity:
    def test_reference_tuple(self):
        report = verify_fall_identity(P352, [0.5, 1.0, 2.0])
        assert report.max_rel_error < 1e-6

    def test_second_tuple(self):
        params = validate_params(4, 0.75, -0.5, 1.9)
        report = verify_fall_identity(params, [1.0, 2.0])
        assert report.max_rel_error < 1e-6

    def test_error_is_radius_independent(self):
        report = verify_fall_identity(P352, [0.25, 1.0, 4.0])
        assert report.multiplier_ratio_drift < 1e-10

    def test_node_doubling_convergence(self):
        # radial refinement at fixed angular resolution; reduction is far
        # better than 4x until the cancellation floor
        for tup in ((3, 0.5, 0.0, 2.0), (4, 0.75, -0.5, 1.9)):
            params = validate_params(*tup)
            errors = []
            for nodes in (16, 32, 64, 128):
                cfg = QuadratureConfig(nodes_radial=nodes, nodes_angular=64)
                errors.append(verify_fall_identity(params, [1.0], cfg).max_rel_error)
            for coarse, fine in zip(errors, errors[1:]):
                assert fine <= max(coarse / 4.0, 1e-8)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            verify_fall_identity(validate_params(3, 0.5, 1.5, 2.0), [1.0])
