"""Half-space extension: kernel mass, trace recovery, flux, profiles, barrier."""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from hardyhenon import extension, specialfn
from hardyhenon.cylinder import CylinderGrid, psi_nodes
from hardyhenon.extension import (
    _FLUX_T_SEQUENCE,
    _T0_HALVINGS,
    ExtensionField,
    _barrier_ladder,
    _extrapolate_t0,
    _flux_rule,
    _profile_connection,
    _profile_quadrature,
    _t0_fit,
    exact_extension_field,
    exact_sphere_profile,
    fowler_map,
    neumann_flux,
    poisson_extend_radial,
    verify_barrier_identity,
    verify_sphere_ode,
)
from hardyhenon.fraclap import QuadratureConfig, RadialProfile, power_profile
from hardyhenon.params import derive_exponents, validate_params
from hardyhenon.quadrature import angular_kernel
from hardyhenon.specialfn import kappa_sigma, singular_constant
from hardyhenon.sphere import derivative_weights, edge_model, power_fit

P352 = validate_params(3, 0.5, 0.0, 2.0)


def exact_trace(params):
    beta = derive_exponents(params).beta
    amp = singular_constant(params)
    return RadialProfile(
        evaluate=lambda r: amp * np.asarray(r, float) ** (-beta),
        inner_exponent=beta,
        outer_exponent=beta,
    )


class TestPoissonExtension:
    def test_constant_trace_extends_to_one(self):
        for n, sigma in ((2, 0.3), (3, 0.5), (4, 0.75)):
            for point in ((1.0, 0.3), (0.5, 1.2), (1.0, math.pi / 2.0), (1.0, 1e-3)):
                u = poisson_extend_radial(power_profile(0.0), point, n, sigma)
                assert u == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self):
        prof = power_profile(1.0)
        a = poisson_extend_radial(prof, (1.0, 0.4), 3, 0.5)
        b = poisson_extend_radial(prof, (2.0, 0.4), 3, 0.5)
        assert b == pytest.approx(a / 2.0, rel=1e-8)

    def test_trace_recovery_monotone(self):
        prof = power_profile(1.0)
        errors = []
        for psi in (1e-1, 1e-2, 1e-3):
            u = poisson_extend_radial(prof, (1.0, psi), 3, 0.5)
            errors.append(abs(u - 1.0))
        assert errors[0] > errors[1] > errors[2]
        # rate sin(psi)^{2 sigma}: ratios approach 10 for sigma = 1/2
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)

    def test_boundary_angle_rejected(self):
        with pytest.raises(ValueError, match="psi = 0"):
            poisson_extend_radial(power_profile(0.0), (1.0, 0.0), 3, 0.5)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, r):
        # nan and inf once returned nan
        with pytest.raises(ValueError, match="radius r must be finite and positive"):
            poisson_extend_radial(power_profile(1.0), (r, 0.4), 3, 0.5)

    def test_convergence_report(self):
        from hardyhenon.fraclap import QuadratureError

        value = poisson_extend_radial(
            power_profile(1.0), (1.0, 0.4), 3, 0.5, convergence_tol=1e-6
        )
        assert value > 0.0
        with pytest.raises(QuadratureError) as err:
            poisson_extend_radial(power_profile(1.0), (1.0, 0.4), 3, 0.5, convergence_tol=1e-17)
        assert err.value.estimate > 1e-17


class TestNeumannFlux:
    def test_exact_trace_reference(self):
        flux = neumann_flux(exact_trace(P352), 1.0, P352)
        assert flux.value == pytest.approx((2.0 / math.pi) ** 2, rel=1e-4)
        # the quadrature's own value; the t -> 0 fit amplifies kernel rounding
        assert flux.value == pytest.approx(0.4052847863465031, rel=1e-10)

    def test_constant_trace_has_no_flux(self):
        flux = neumann_flux(power_profile(0.0), 1.0, P352)
        assert abs(flux.value) < 1e-8

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, r):
        # -1 once returned a plausible flux and 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match="radius r must be finite and positive"):
            neumann_flux(exact_trace(P352), r, P352)

    def test_cold_and_warm_cache_agree_bitwise(self):
        trace = exact_trace(P352)
        _flux_rule.cache_clear()
        cold = neumann_flux(trace, 1.3, P352)
        neumann_flux(trace, 0.5, P352)
        assert neumann_flux(trace, 1.3, P352) == cold
        info = _flux_rule.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_cached_arrays_are_read_only(self):
        rule = _flux_rule(3, 0.5, QuadratureConfig())
        for a in (rule.nodes, rule.weight, rule.k0):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0

    def test_flux_scales_homogeneously(self):
        params = P352
        d = derive_exponents(params)
        f1 = neumann_flux(exact_trace(params), 1.0, params)
        f2 = neumann_flux(exact_trace(params), 2.0, params)
        want = 2.0 ** (params.alpha - d.beta * params.p)
        assert f2.value / f1.value == pytest.approx(want, rel=1e-5)


def counting_trace(trace):
    """``trace`` with a list that gets one entry per call of its evaluate."""
    calls = []

    def evaluate(r):
        calls.append(1)
        return trace.evaluate(r)

    return RadialProfile(evaluate, trace.inner_exponent, trace.outer_exponent), calls


class TestOneTraceEvaluation:
    """The extension's rule stacks its zones, so a flux and a Poisson batch
    each evaluate the trace once, and give what separate zones gave."""

    # the spike zone reaches x > 0.05 |X|: psi = 1e-3 and 0.3, not 1.53 and pi/2
    PSI = np.array([1e-3, 0.3, 1.53, math.pi / 2.0])

    def test_one_evaluation_per_flux(self):
        trace, calls = counting_trace(exact_trace(P352))
        for r in (0.5, 1.0, 2.0):
            neumann_flux(trace, r, P352)
            assert len(calls) == 1
            calls.clear()

    def test_one_evaluation_per_poisson_batch(self):
        trace, calls = counting_trace(exact_trace(P352))
        for r in (np.ones(4), np.array([0.5, 1.0, 2.0, 3.0])):
            extension._poisson_values(trace, r, self.PSI, 3, 0.5, QuadratureConfig())
            assert len(calls) == 1
            calls.clear()

    def test_missed_zone_pads_with_zero_weights_at_the_radius(self):
        r = np.array([0.5, 1.0, 2.0, 3.0])
        x, t = r * np.cos(self.PSI), r * np.sin(self.PSI)
        cfg = QuadratureConfig()
        kernel = lambda c0, q, t2: angular_kernel(c0, q, 3, 4.0, cfg.nodes_angular)
        rule = extension._radial_rule(x, t, 3, cfg, kernel)
        N = cfg.nodes_radial
        assert rule.nodes.shape == (4, 1 + 3 * N) and rule.weight.shape == (4, 3, N)
        spike = np.any(rule.weight[:, 0] != 0.0, axis=1)
        np.testing.assert_array_equal(spike, [True, True, False, False])
        pad = np.hypot(x, t)[~spike, None]
        np.testing.assert_array_equal(rule.nodes[~spike, 1:1 + N], np.broadcast_to(pad, (2, N)))

    @pytest.mark.parametrize("n, sigma", [(2, 0.3), (3, 0.5), (5, 0.75)])
    def test_batch_matches_single_points_bitwise(self, n, sigma):
        traces = (power_profile(0.0), power_profile(1.0, 2.0), exact_trace(P352))
        r = np.array([0.5, 1.0, 2.0, 3.0])
        for trace in traces:
            batch = extension._poisson_values(trace, r, self.PSI, n, sigma, QuadratureConfig())
            single = [poisson_extend_radial(trace, (ri, psi), n, sigma) for ri, psi in zip(r, self.PSI)]
            np.testing.assert_array_equal(batch, single)


def mpmath_t0_fit(t, samples, sigma):
    """The t -> 0 limit and max residual of the least-squares fit of the
    samples on [1, t^{2-2s}, t^2], by 40-digit normal equations."""
    with mpmath.workdps(40):
        e1 = 2 - 2 * mpmath.mpf(sigma)
        M = mpmath.matrix([[mpmath.mpf(float(x)) ** e for e in (0, e1, 2)] for x in t])
        y = mpmath.matrix([mpmath.mpf(float(v)) for v in samples])
        coef = mpmath.lu_solve(M.T * M, M.T * y)
        return float(coef[0]), float(max(abs(v) for v in M * coef - y))


class TestT0Fit:
    """One least-squares fit per sigma on 2^-k serves samples at every scale."""

    @pytest.mark.parametrize("scales", [
        (1e-2, 0.1, 1.0, 10.0, 1e2),
        tuple(0.05 * r for r in (0.5, 1.0, 1.3, 2.0)),
    ], ids=["1e-2_to_1e2", "flux"])
    def test_matches_mpmath_least_squares(self, scales):
        # measured at most 3.2e-16 of max|samples| for the limit and 4.6e-16
        # for the residual; a pseudo-inverse at the samples' own scale missed
        # the limit by up to 4.6e-13 (1e-2 to 1e2) and 1.3e-12 (flux) on the
        # same draws
        rng = np.random.default_rng(3)
        for _ in range(12):
            sigma = float(rng.uniform(0.06, 0.99))
            samples = rng.standard_normal(9)
            bound = 1e-14 * np.max(np.abs(samples))
            value, resid = _extrapolate_t0(samples, sigma)
            for scale in scales:
                want, want_resid = mpmath_t0_fit(scale * _T0_HALVINGS, samples, sigma)
                assert abs(value - want) <= bound, (sigma, scale, value - want)
                assert abs(resid - want_resid) <= bound, (sigma, scale, resid - want_resid)

    def test_t2_column_dropped_where_exponents_meet(self):
        assert _t0_fit(0.04).M.shape == (9, 2)
        assert _t0_fit(0.06).M.shape == (9, 3)
        np.testing.assert_array_equal(_t0_fit(0.3).M[:, 2], _T0_HALVINGS ** 2)

    def test_cached_arrays_are_read_only(self):
        for a in _t0_fit(0.5):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0


def count_repeat_work(monkeypatch):
    """Counts of np.linalg.pinv and specialfn.log_gamma_signed calls from now on."""
    counts = {"pinv": 0, "log_gamma": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv))
    monkeypatch.setattr(specialfn, "log_gamma_signed", counted("log_gamma", specialfn.log_gamma_signed))
    return counts


class TestWarmCallsRepeatNoWork:
    """After one warm call, neither the flux nor the barrier check computes a
    pseudo-inverse or a log-Gamma."""

    @pytest.mark.parametrize("quad", [(3, 0.5, 0.0, 2.0), (4, 0.75, 0.0, 5.0 / 3.0)])
    def test_flux(self, quad, monkeypatch):
        params = validate_params(*quad)
        trace = exact_trace(params)
        neumann_flux(trace, 1.0, params)
        counts = count_repeat_work(monkeypatch)
        for r in (0.5, 1.0, 2.0):
            flux = neumann_flux(trace, r, params)
            np.testing.assert_array_equal(flux.t_samples, r * _FLUX_T_SEQUENCE)
        assert counts == {"pinv": 0, "log_gamma": 0}

    def test_barrier_ladder(self, monkeypatch):
        point = (math.cos(0.5), math.sin(0.5))
        _barrier_ladder(0.8, 0.3, point, P352, 3)
        counts = count_repeat_work(monkeypatch)
        _barrier_ladder(0.8, 0.3, point, P352, 3)
        assert counts == {"pinv": 0, "log_gamma": 0}


class TestFowler:
    def _field(self):
        rng = np.random.default_rng(3)
        r = np.exp(np.linspace(-1.0, 1.0, 21))
        psi = np.linspace(0.0, math.pi / 2.0, 17)
        vals = 1.0 + rng.random((21, 17))
        return ExtensionField(r, psi, vals, P352)

    def test_round_trip(self):
        field = self._field()
        fow = fowler_map(field)
        # the inverse map: U = e^{-beta s} V at r = e^s
        back = fow.values * np.exp(fow.s_grid)[:, None] ** -derive_exponents(P352).beta
        assert np.max(np.abs(back - field.values) / field.values) < 1e-12
        assert np.max(np.abs(np.exp(fow.s_grid) - field.r_grid)) < 1e-14

    def test_exact_field_is_axially_constant(self):
        grid = CylinderGrid(n_s=33, n_psi=33)
        psi = psi_nodes(grid)
        r = np.exp(np.linspace(-1.0, 1.0, 33))
        fow = fowler_map(exact_extension_field(P352, r, psi))
        drift = np.max(np.abs(fow.values - fow.values[0, None, :]))
        assert drift < 1e-10 * np.max(fow.values)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExtensionField(np.ones(2), np.ones(3), -np.ones((2, 3)), P352)


@pytest.fixture(scope="module")
def profile():
    return exact_sphere_profile(P352, psi_nodes(CylinderGrid()))


class TestSphereProfile:

    def test_boundary_value_matches_amplitude(self, profile):
        # the boundary value is C by construction; the Poisson quadrature of
        # the exact trace must meet the closed form, edge term and all, as
        # psi -> 0 (measured at most 5.0e-12)
        assert profile.boundary_value == singular_constant(P352)
        psi = np.array([1e-3, 1e-4, 1e-5, 1e-6])
        near = exact_sphere_profile(P352, psi).phi
        assert np.max(np.abs(_profile_quadrature(P352, psi) / near - 1.0)) <= 1e-10

    def test_regression_values(self, profile):
        assert profile.boundary_value == pytest.approx(2.0 / math.pi, rel=1e-13)
        want = {1: 0.6364643944204207, 32: 0.5168042071219421, 64: 0.4052847345693512}
        for j, phi in want.items():
            assert profile.phi[j] == pytest.approx(phi, rel=1e-13), j

    @pytest.mark.parametrize("sigma", (0.25, 0.5, 0.75))
    def test_batch_matches_one_point_extension(self, sigma):
        m = 3.0 - 2.0 * sigma
        params = validate_params(3, sigma, 0.0, 0.5 * (3.0 / m + (3.0 + 2.0 * sigma) / m))
        psi = psi_nodes(CylinderGrid(n_psi=17))[1:]
        batch = _profile_quadrature(params, psi)
        trace = exact_trace(params)
        for j, angle in enumerate(psi):
            one = poisson_extend_radial(trace, (1.0, angle), params.n, sigma)
            assert abs(batch[j] - one) <= 1e-15 * abs(one), (sigma, angle)

    def test_every_boundary_angle_takes_the_boundary_value(self):
        prof = exact_sphere_profile(P352, np.array([0.3, 0.0, 0.6]))
        assert prof.phi[1] == prof.boundary_value

    def test_angles_outside_the_half_sphere_rejected(self):
        for psi in (1.7, -0.1):
            with pytest.raises(ValueError, match="angle"):
                exact_sphere_profile(P352, np.array([0.3, psi]))

    def test_grid_that_is_not_1d_rejected(self):
        for psi in (np.full((2, 3), 0.5), np.float64(0.5)):
            with pytest.raises(ValueError, match="1-D"):
                exact_sphere_profile(P352, psi)

    def test_positive_and_bounded(self, profile):
        assert profile.phi.min() > 0.0
        assert np.isfinite(profile.phi).all()

    def test_finite_on_the_axis(self, profile):
        assert np.isfinite(profile.phi[-1])
        assert profile.psi_grid[-1] == pytest.approx(math.pi / 2.0)

    def test_interior_residual_second_order(self, profile):
        res_coarse = verify_sphere_ode(profile, P352)
        fine = exact_sphere_profile(P352, psi_nodes(CylinderGrid().refined()))
        res_fine = verify_sphere_ode(fine, P352)
        assert res_coarse.interior_max / res_fine.interior_max > 3.0

    def test_boundary_residual(self, profile):
        res = verify_sphere_ode(profile, P352)
        assert res.boundary_rel < 1e-3

    @pytest.mark.parametrize("quad", [(3, 0.5, 0.0, 2.0), (4, 0.75, 0.0, 5.0 / 3.0),
                                      (3, 0.3, 0.0, 1.6), (5, 0.6, -0.3, 1.5)])
    def test_boundary_residual_converges(self, quad):
        # 65 -> 129 nodes; measured about 16x on each of these tuples
        params = validate_params(*quad)
        coarse, fine = (verify_sphere_ode(exact_sphere_profile(params, psi_nodes(grid)), params)
                        for grid in (CylinderGrid(), CylinderGrid().refined()))
        assert coarse.boundary_rel >= 8.0 * fine.boundary_rel

    def test_constant_profile_residual_is_mass_term(self):
        from hardyhenon.extension import SphereProfile

        psi = psi_nodes(CylinderGrid(n_psi=33))
        prof = SphereProfile(psi_grid=psi, phi=np.full_like(psi, 2.0), boundary_value=2.0)
        J2 = derive_exponents(P352).J2
        res = verify_sphere_ode(prof, P352)
        assert res.interior_max == pytest.approx(J2 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("quad,interior,boundary", [
        ((3, 0.5, 0.0, 2.0), 0.00017406310354722843, 3.915195910887149e-07),
        ((4, 0.75, 0.0, 5.0 / 3.0), 0.00010127056815195656, 1.8497831996181286e-06),
    ], ids=["sigma_half", "sigma_three_quarters"])  # ids that survive a re-recording
    def test_regression_residuals(self, quad, interior, boundary):
        # recorded on the default grid, with the closed-form profile
        params = validate_params(*quad)
        res = verify_sphere_ode(exact_sphere_profile(params, psi_nodes(CylinderGrid())), params)
        assert res.interior_max == pytest.approx(interior, rel=1e-6)
        assert res.boundary_rel == pytest.approx(boundary, rel=1e-6)


def sweep(n):
    """(n, sigma, 0, p) with beta/m = .1, .5 and .9 for each sigma of the sweep."""
    for sigma in (0.05, 0.3, 0.45, 0.5, 0.55, 0.75, 0.95):
        m = n - 2.0 * sigma
        for ratio in (0.1, 0.5, 0.9):
            yield validate_params(n, sigma, 0.0, 1.0 + 2.0 * sigma / (ratio * m))


def mpmath_profile(params, psi):
    """phi / C = G(a + s) G(b + s) / (G(s) G(n/2)) F(a, b; n/2; cos^2 psi) at 40 digits."""
    with mpmath.workdps(40):
        n, s = mpmath.mpf(params.n), mpmath.mpf(params.sigma)
        beta = (2 * s + mpmath.mpf(params.alpha)) / (mpmath.mpf(params.p) - 1)
        a, b = beta / 2, (n - 2 * s - beta) / 2
        k = mpmath.gamma(a + s) * mpmath.gamma(b + s) / (mpmath.gamma(s) * mpmath.gamma(n / 2))
        return np.array([float(k * mpmath.hyp2f1(a, b, n / 2, mpmath.cos(mpmath.mpf(x)) ** 2))
                         for x in psi])


class TestClosedFormProfile:
    """The closed form of exact_sphere_profile against mpmath, the flux
    condition and the Poisson quadrature of the exact trace."""

    QUARTER = math.pi / 4.0  # x = sin^2 psi = 1/2, above which only the direct series is used
    FLOOR = math.asin(0.25)  # x = 1/16, below which only the connection form is used
    ANGLES = np.array([0.0, 1e-12, 1e-6, 1e-3, np.nextafter(FLOOR, 0.0), FLOOR,
                       np.nextafter(FLOOR, 1.0), 0.4, np.nextafter(QUARTER, 0.0), QUARTER,
                       np.nextafter(QUARTER, 1.0), 1.0, 1.3, math.pi / 2.0])

    def test_angles_straddle_the_seams(self):
        x = np.sin(self.ANGLES) ** 2
        assert x[4] < 1.0 / 16.0 <= x[6]
        assert x[9] <= 0.5 < x[10]

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_matches_mpmath(self, n):
        # measured at most 2.1e-15, 2.9e-15, 8.9e-15 and 8.9e-15; summing the
        # connection form up to x = 1/2 regardless of its cancellation read
        # 3.9e-14 for n = 5 and 4.6e-12 for n = 10
        for params in sweep(n):
            prof = exact_sphere_profile(params, self.ANGLES)
            assert prof.phi[0] == prof.boundary_value == singular_constant(params)
            want = mpmath_profile(params, self.ANGLES)
            err = np.max(np.abs(prof.phi / prof.boundary_value - want) / want)
            assert err <= 1e-13, (params, err)

    # the two default-grid profiles of the benchmark sweep (p at the midpoint
    # of Serrin and Sobolev) whose cancellation test sends an edge node to the
    # direct series, and the SHA-256 of their phi bytes
    LONG_CUT = {(5, 0.25, -0.25): "837eeb2c341740ab86bbc6c8e66da696a900b04a93108ac8525a68f920b3d641",
                (5, 0.25, 0.0): "229be311ee731c2300ebb156873bcd83555551dfe2299674299a2e839bd247b8"}

    @pytest.mark.parametrize("key", list(LONG_CUT) + [(3, 0.5, 0.0), (5, 0.25, 0.25)])
    def test_only_long_cut_profiles_take_a_second_sweep(self, key, monkeypatch):
        n, sigma, alpha = key
        m = n - 2.0 * sigma
        params = validate_params(n, sigma, alpha, 0.5 * ((n + alpha) / m + (n + 2.0 * sigma) / m))
        cuts, sweep = [], extension._hyp2f1_sweep

        def counted(rows, z, z_max):
            cuts.append(z_max)
            return sweep(rows, z, z_max)

        monkeypatch.setattr(extension, "_hyp2f1_sweep", counted)
        phi = exact_sphere_profile(params, psi_nodes(CylinderGrid())).phi
        if key in self.LONG_CUT:
            assert cuts[0] == 0.5 < cuts[1] and len(cuts) == 2
            assert hashlib.sha256(phi.tobytes()).hexdigest() == self.LONG_CUT[key]
        else:
            assert cuts == [0.5]

    @pytest.mark.parametrize("quad", [(3, 0.5, 0.0, 1.8), (3, 0.45, 0.0, 1.8), (4, 0.75, 0.0, 5.0 / 3.0),
                                      (3, 0.3, 0.0, 1.6), (2, 0.3, 0.2, 3.0), (5, 0.6, -0.3, 1.5)])
    def test_flux_identity(self, quad):
        # the sin^{2 sigma} coefficient C B/A of the edge expansion meets the
        # nonlinear flux condition -2 sigma c = kappa_sigma C^p
        params = validate_params(*quad)
        C = singular_constant(params)
        flux = -2.0 * params.sigma * C * _profile_connection(params)[3]
        assert flux == pytest.approx(kappa_sigma(params.sigma) * C ** params.p, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_poisson_quadrature_agrees(self, n):
        # measured at most 1.6e-14 over the sweep
        psi = psi_nodes(CylinderGrid())[1:]
        for params in sweep(n):
            phi = exact_sphere_profile(params, psi).phi
            err = np.max(np.abs(_profile_quadrature(params, psi) / phi - 1.0))
            assert err <= 1e-6, (params, err)


class TestPowerFit:
    """The one local fit f ~ sum_j a_j x^{e_j} behind every psi-grid and t -> 0 fit."""

    EXPONENTS = (0.0, 0.6, 2.0)
    COEF = np.array([0.7, -0.3, 1.1])

    def samples(self, x):
        return (np.asarray(x)[..., None] ** np.array(self.EXPONENTS)) @ self.COEF

    def test_square_system_interpolates(self):
        x = np.array([0.1, 0.3, 0.7])
        W = power_fit(x, self.EXPONENTS)
        assert W.shape == (3, 3)
        np.testing.assert_allclose(W @ self.samples(x), self.COEF, rtol=1e-12)

    def test_tall_system_is_least_squares(self):
        x = np.linspace(0.05, 0.9, 9)
        W = power_fit(x, self.EXPONENTS)
        assert W.shape == (3, 9)
        np.testing.assert_allclose(W @ self.samples(x), self.COEF, rtol=1e-12)
        # on data off the model, the residual is orthogonal to every column
        f = self.samples(x) + 1e-3 * np.cos(7.0 * x)
        M = x[:, None] ** np.array(self.EXPONENTS)
        resid = f - M @ (W @ f)
        assert np.max(np.abs(M.T @ resid)) < 1e-14

    def test_leading_axes_batch_independent_fits(self):
        x = np.array([[0.1, 0.3, 0.7], [0.2, 0.25, 0.4], [1e-3, 2e-3, 4e-3]])
        W = power_fit(x, self.EXPONENTS)
        assert W.shape == (3, 3, 3)
        for row, Wrow in zip(x, W):
            np.testing.assert_array_equal(Wrow, power_fit(row, self.EXPONENTS))
        coef = np.einsum("bjk,bk->bj", W, self.samples(x))
        # the x^2 coefficient of the last fit is conditioned by 1/x^2 ~ 1e5
        np.testing.assert_allclose(coef, np.broadcast_to(self.COEF, (3, 3)), rtol=1e-10)


class TestPsiGrid:
    """The shared psi-grid pieces of the solver, the energy and the sphere-ODE check."""

    @pytest.mark.parametrize("n_psi", (65, 129))
    def test_three_point_weights_match_closed_forms(self, n_psi):
        psi = psi_nodes(CylinderGrid(n_psi=n_psi))
        hm = psi[1:-1] - psi[:-2]
        hp = psi[2:] - psi[1:-1]
        want1 = np.stack([-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))], axis=1)
        want2 = np.stack([2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp))], axis=1)
        for got, want in zip(derivative_weights(psi), (want1, want2)):
            # measured against the summed term size, as in the exactness test below
            err = np.abs(got - want).max(axis=1) / np.abs(want).sum(axis=1)
            assert err.max() < 1e-12

    @pytest.mark.parametrize("n_psi", (65, 129))
    def test_three_point_weights_exact_on_quadratics(self, n_psi):
        psi = psi_nodes(CylinderGrid(n_psi=n_psi))
        d1, d2 = derivative_weights(psi)
        x = psi[1:-1]
        stencil = np.stack([psi[:-2], x, psi[2:]], axis=1)
        for f, df, d2f in ((np.ones_like, np.zeros_like, np.zeros_like),
                           (lambda v: v, np.ones_like, np.zeros_like),
                           (lambda v: v * v, lambda v: 2.0 * v, lambda v: np.full_like(v, 2.0))):
            for w, exact in ((d1, df(x)), (d2, d2f(x))):
                terms = w * f(stencil)
                # the weights grow like 1/h^2 at the graded edge, so exactness is
                # measured against the size of the summed terms
                err = np.abs(terms.sum(axis=1) - exact) / np.abs(terms).sum(axis=1)
                assert err.max() < 1e-12

    @pytest.mark.parametrize("sigma", (0.3, 0.5, 0.75))
    def test_edge_model_recovers_coefficients(self, sigma):
        # 17 nodes: the e coefficient is conditioned by 1/sin^2 psi_1, which on
        # finer graded grids amplifies the rounding of the samples past 1e-12
        psi = psi_nodes(CylinderGrid(n_psi=17))
        v0, c, e = 0.7, -0.3, 1.1
        s = np.sin(psi[:3])
        got = edge_model(psi, sigma) @ (v0 + c * s ** (2.0 * sigma) + e * s ** 2)
        assert got[0] == pytest.approx(c, rel=1e-12)
        assert got[1] == pytest.approx(e, rel=1e-12)


class TestBarrier:
    POINT = (math.cos(0.5), math.sin(0.5))

    def test_interior_second_order(self):
        seq = []
        for k in range(3):
            res = verify_barrier_identity(0.8, 0.3, self.POINT, P352, h=1e-2 * 0.5 ** k)
            seq.append(res.interior)
        assert seq[0] / seq[1] == pytest.approx(4.0, rel=0.1)
        assert seq[1] / seq[2] == pytest.approx(4.0, rel=0.1)

    def test_no_tilt_means_no_flux(self):
        # the weighted derivative is O(t^{2-2s}) with no constant term; what
        # remains in the extrapolated limit is cubic leakage beyond the fit
        res = verify_barrier_identity(0.8, 0.0, self.POINT, P352, t0=0.01)
        assert res.neumann < 1e-7

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ValueError, match="mu"):
            verify_barrier_identity(2.5, 0.3, self.POINT, P352)
        with pytest.raises(ValueError, match="delta"):
            verify_barrier_identity(0.8, 0.7, self.POINT, P352)

    @pytest.mark.parametrize("scales, bound", [
        ({"h": 0.0}, "0 < h < 1"), ({"h": 1.5}, "0 < h < 1"), ({"h": math.nan}, "0 < h < 1"),
        ({"t0": 0.0}, "t0 > 0"), ({"t0": -0.05}, "t0 > 0"),
        ({"fd_ratio": 0.0}, "0 < fd_ratio < 1"), ({"fd_ratio": 1.5}, "0 < fd_ratio < 1"),
    ])
    def test_scales_enforced(self, scales, bound):
        with pytest.raises(ValueError, match=f"requires {bound}"):
            verify_barrier_identity(0.8, 0.3, self.POINT, P352, **scales)

    @pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.nan), (0.0, 0.5), (0.5, -0.1)],
                             ids=["nan-q", "nan-t", "zero-q", "negative-t"])
    def test_stencil_point_must_be_positive(self, point):
        # a NaN coordinate once passed and ended as a failed decay order
        with pytest.raises(ValueError, match="needs positive coordinates"):
            verify_barrier_identity(0.8, 0.3, point, P352)
