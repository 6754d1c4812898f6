"""Principal-value quadrature of the nonlocal operator on radial profiles."""

import math

import pytest

from hardyhenon.fraclap import (
    QuadratureConfig,
    QuadratureError,
    check_Lsigma_membership,
    combine_profiles,
    frac_laplacian_radial,
    power_profile,
    verify_fall_identity,
)
from hardyhenon.params import validate_params
from hardyhenon.quadrature import angular_kernel
from hardyhenon.specialfn import lambda_multiplier, unit_sphere_area

P352 = validate_params(3, 0.5, 0.0, 2.0)


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
        # identical up to the quadrature's own accuracy: node placement in the
        # log zones does not scale bit-exactly
        prof = power_profile(0.8)
        v1 = frac_laplacian_radial(prof, 1.0, P352)
        v2 = frac_laplacian_radial(prof, 2.0, P352)
        assert v2 == pytest.approx(2.0 ** (-0.8 - 1.0) * v1, rel=5e-10)

    def test_linearity(self):
        cfg = QuadratureConfig(tail_cutoff=1e5)
        u = power_profile(0.8)
        v = power_profile(1.2)
        combo = combine_profiles([2.0, 3.0], [u, v])
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

    def test_convergence_report(self):
        value = frac_laplacian_radial(power_profile(1.0), 1.0, P352, convergence_tol=1e-6)
        assert value == pytest.approx(2.0 / math.pi, rel=1e-9)
        with pytest.raises(QuadratureError) as err:
            frac_laplacian_radial(power_profile(1.0), 1.0, P352, convergence_tol=1e-16)
        assert err.value.estimate > 1e-16


class TestConfig:
    def test_node_minimum_enforced(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes_radial=4)


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
