"""Monotonicity energy and the cylinder solver feeding it."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hardyhenon.cylinder import (
    CylinderGrid,
    SolverDivergence,
    psi_nodes,
    solve_cylinder_pde,
    solve_end_perturbed,
)
from hardyhenon.energy import (
    MonotonicityVerdict,
    _cell_quad_weights,
    derivative_identity_check,
    energy_cylinder,
    energy_halfsphere,
    energy_trace,
    monotonicity_verdict,
)
from hardyhenon.extension import (
    ExtensionField,
    FowlerField,
    exact_extension_field,
    exact_sphere_profile,
    fowler_map,
    fowler_unmap,
)
from hardyhenon.params import derive_exponents, validate_params
from hardyhenon.specialfn import kappa_sigma, singular_constant, unit_sphere_area

P352 = validate_params(3, 0.5, 0.0, 2.0)
SUB = validate_params(3, 0.5, 0.0, 1.8)


def closed_form_energy(params):
    C = singular_constant(params)
    return (
        kappa_sigma(params.sigma)
        * (1.0 / (params.p + 1.0) - 0.5)
        * C ** (params.p + 1.0)
        * unit_sphere_area(params.n)
    )


@pytest.fixture(scope="module")
def exact_field():
    grid = CylinderGrid()
    psi = psi_nodes(grid)
    r = np.exp(np.linspace(math.log(0.2), math.log(5.0), 161))
    return exact_extension_field(P352, r, psi)


@pytest.fixture(scope="module")
def sub_profile():
    return exact_sphere_profile(SUB, psi_nodes(CylinderGrid()))


@pytest.fixture(scope="module")
def perturbed_solution(sub_profile):
    grid = CylinderGrid()
    return solve_cylinder_pde(
        SUB,
        1.05 * sub_profile.phi,
        sub_profile.phi,
        grid,
        initial=np.tile(sub_profile.phi, (grid.n_s, 1)),
    )


class TestExactField:
    def test_halfsphere_value(self, exact_field):
        target = closed_form_energy(P352)
        got = energy_halfsphere(exact_field, 1.0, P352)
        assert got == pytest.approx(target, rel=1e-3)

    def test_constant_in_radius(self, exact_field):
        values = [
            energy_halfsphere(exact_field, float(r), P352)
            for r in exact_field.r_grid[5:-5:25]
        ]
        target = closed_form_energy(P352)
        assert (max(values) - min(values)) / abs(target) < 1e-3

    def test_cylinder_agrees_with_halfsphere(self, exact_field):
        fow = fowler_map(exact_field)
        r = float(exact_field.r_grid[80])
        a = energy_halfsphere(exact_field, r, P352)
        b = energy_cylinder(fow, math.log(r), P352)
        assert a == pytest.approx(b, rel=1e-6)

    def test_trace_flat_with_constant_verdict(self, exact_field):
        tr = energy_trace(exact_field, (math.log(0.25), math.log(4.0)), P352)
        assert np.max(np.abs(tr.dE_formula)) < 1e-6 * abs(closed_form_energy(P352))
        assert np.max(np.abs(tr.dE_fd)) < 1e-6 * abs(closed_form_energy(P352))
        assert monotonicity_verdict(tr) is MonotonicityVerdict.CONSTANT

    def test_zero_field_has_zero_energy(self):
        psi = psi_nodes(CylinderGrid(n_psi=17))
        s = np.linspace(-1.0, 1.0, 11)
        fow = FowlerField(s, psi, np.zeros((11, 17)), P352)
        assert energy_cylinder(fow, 0.0, P352) == 0.0

    def test_edge_samples_rejected(self, exact_field):
        fow = fowler_map(exact_field)
        with pytest.raises(ValueError, match="edge"):
            energy_cylinder(fow, float(fow.s_grid[0]), P352)

    @pytest.mark.parametrize("lam,k", [(2.0, 32), (0.5, -32)])
    def test_scaling_invariance(self, lam, k):
        # U_lambda(X) = lambda^beta U(lambda X) realized as an exact index
        # shift on a base-2 log grid; E(r; U_lambda) must equal E(lambda r; U)
        beta = derive_exponents(P352).beta
        psi = psi_nodes(CylinderGrid(n_psi=33))
        r = 2.0 ** np.linspace(-3.0, 3.0, 193)  # 32 steps per octave
        field = exact_extension_field(P352, r, psi)
        lo, hi = max(0, k), min(len(r), len(r) + k)
        shifted = ExtensionField(
            r_grid=r[lo - k : hi - k],
            psi_grid=psi,
            values=lam ** beta * field.values[lo:hi, :],
            params=P352,
        )
        i = 96 - max(0, k)  # a mid-grid node present in both fields
        a = energy_halfsphere(shifted, float(shifted.r_grid[i]), P352)
        b = energy_halfsphere(field, float(lam * shifted.r_grid[i]), P352)
        scale = abs(closed_form_energy(P352))
        assert abs(a - b) < 1e-8 * scale


class TestSolver:
    def test_exact_data_reproduces_profile(self, sub_profile):
        grid = CylinderGrid()
        res = solve_cylinder_pde(
            SUB, sub_profile.phi, sub_profile.phi, grid,
            initial=np.tile(sub_profile.phi, (grid.n_s, 1)),
        )
        dev = np.max(np.abs(res.field.values - sub_profile.phi[None, :]))
        assert dev / sub_profile.phi.max() < 1e-3
        assert res.residual_norm < 1e-8

    def test_positive_data_required(self, sub_profile):
        grid = CylinderGrid()
        bad = sub_profile.phi.copy()
        bad[3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            solve_cylinder_pde(SUB, bad, sub_profile.phi, grid)

    def test_divergence_reported_with_history(self, sub_profile):
        grid = CylinderGrid()
        with pytest.raises(SolverDivergence) as err:
            solve_cylinder_pde(
                SUB, 1.05 * sub_profile.phi, sub_profile.phi, grid,
                initial=np.tile(sub_profile.phi, (grid.n_s, 1)),
                max_iterations=1,
            )
        assert len(err.value.history) >= 1

    def test_solution_stays_positive(self, perturbed_solution):
        assert np.all(perturbed_solution.field.values > 0.0)
        assert not perturbed_solution.projected_negative


class TestPerturbedEnergy:
    def test_formula_side_sign(self, perturbed_solution):
        tr = energy_trace(perturbed_solution.field, (-3.5, 3.5), SUB)
        assert tr.J1 > 0.0
        assert np.all(tr.dE_formula >= 0.0)

    def test_verdict_nondecreasing(self, perturbed_solution):
        tr = energy_trace(perturbed_solution.field, (-3.5, 3.5), SUB)
        scale = float(np.max(np.abs(tr.E)))
        verdict = monotonicity_verdict(tr, budget=1e-4 * scale)
        assert verdict is MonotonicityVerdict.NON_DECREASING

    def test_identity_on_signal_window(self, perturbed_solution):
        tr = energy_trace(perturbed_solution.field, (-3.0, -2.0), SUB)
        assert derivative_identity_check(tr) < 0.05

    def test_negative_control_fails_identity(self, sub_profile):
        grid = CylinderGrid()
        psi = psi_nodes(grid)
        s = np.linspace(grid.s_min, grid.s_max, grid.n_s)
        values = sub_profile.phi[None, :] * (
            1.0 + 0.3 * np.sin(s)[:, None] * np.cos(psi)[None, :]
        )
        fake = FowlerField(s_grid=s, psi_grid=psi, values=values, params=SUB)
        tr = energy_trace(fake, (-3.0, 3.0), SUB)
        assert derivative_identity_check(tr) > 0.5

    def test_halfsphere_cylinder_agreement_on_solved_field(self, perturbed_solution):
        ext = fowler_unmap(perturbed_solution.field)
        r = float(ext.r_grid[30])
        a = energy_halfsphere(ext, r, SUB)
        b = energy_cylinder(perturbed_solution.field, float(np.log(r)), SUB)
        scale = abs(closed_form_energy(SUB))
        assert abs(a - b) < 1e-4 * scale

    def test_window_too_small_rejected(self, perturbed_solution):
        with pytest.raises(ValueError, match="window"):
            energy_trace(perturbed_solution.field, (0.0, 0.05), SUB)


def loop_cell_weights(psi, n, sigma, start_cell):
    """Cell-by-cell reference for _cell_quad_weights, in the same arithmetic order."""
    xg, wg = np.polynomial.legendre.leggauss(12)
    x01, w01 = (xg + 1.0) / 2.0, wg / 2.0
    out = np.zeros(len(psi))
    for c in range(start_cell, len(psi) - 1):
        lo, hi = psi[c], psi[c + 1]
        if lo == 0.0:
            e = 1.0 / (2.0 - 2.0 * sigma)
            pp, jac = hi * x01 ** e, hi * e * x01 ** (e - 1.0)
        else:
            pp, jac = lo + (hi - lo) * x01, hi - lo
        cellw = w01 * jac * (np.sin(pp) ** (1.0 - 2.0 * sigma) * np.cos(pp) ** (n - 1))
        i0 = min(max(c - 1, 0), len(psi) - 4)
        for k in range(4):
            lag = np.ones_like(pp)
            for l in range(4):
                if l != k:
                    lag *= (pp - psi[i0 + l]) / (psi[i0 + k] - psi[i0 + l])
            out[i0 + k] += np.sum(cellw * lag)
    return out


class TestCellWeights:
    @pytest.mark.parametrize("n_psi", (17, 65))
    @pytest.mark.parametrize("start_cell", (0, 2))
    def test_matches_cell_loop(self, n_psi, start_cell):
        psi = psi_nodes(CylinderGrid(n_psi=n_psi))
        for n, sigma in ((2, 0.3), (3, 0.5), (5, 0.75)):
            want = loop_cell_weights(psi, n, sigma, start_cell)
            np.testing.assert_array_equal(_cell_quad_weights(psi, n, sigma, start_cell), want)

    @pytest.mark.parametrize("n", (2, 3, 5))
    @pytest.mark.parametrize("sigma", (0.3, 0.5, 0.75))
    def test_weights_integrate_the_measure(self, n, sigma):
        # int_0^{pi/2} sin^{1-2s} psi cos^{n-1} psi d psi = B(1 - s, n/2) / 2
        w = _cell_quad_weights(psi_nodes(CylinderGrid()), n, sigma)
        assert w.sum() == pytest.approx(0.5 * beta_fn(1.0 - sigma, n / 2.0), rel=1e-13)


# E and dE_formula at s = -3, -2, 0, 2, 3 on the default grid, recorded from the
# per-row energy evaluation; any rewrite of the energy path must reproduce them.
# Newton stops on a row-scaled residual, so the pins also record the rounding
# of the solve, of the psi operator's fitted weights and of the exact profile
PINNED_ENERGY = {
    (3, 0.5, 0.0, 1.8): [
        (-0.3031075452272754, 0.0011123580684536292),
        (-0.2987519831209647, 0.007641559633629287),
        (-0.28951573307496353, 0.0006881546493953279),
        (-0.24058084406872973, 0.03631463804443251),
        (-0.22764310771333862, 0.004848170158753106),
    ],
    (4, 0.75, 0.0, 5.0 / 3.0): [
        (-0.15041509609630302, 0.00023148369382936353),
        (-0.14994116895708898, 0.00035519058145177233),
        (-0.14827323859537747, 0.0008109452511120478),
        (-0.1454435317642343, 0.000693191388549466),
        (-0.14495178339373282, 0.002870154171514316),
    ],
}


def assert_pinned(field, params, pins):
    tr = energy_trace(field, params=params)
    for s, (E, dE) in zip((-3.0, -2.0, 0.0, 2.0, 3.0), pins):
        i = int(np.argmin(np.abs(tr.s_values - s)))
        assert tr.E[i] == pytest.approx(E, rel=1e-12)
        assert tr.dE_formula[i] == pytest.approx(dE, rel=1e-12)


class TestEnergyRegression:
    def test_half_order_solution(self, perturbed_solution):
        assert_pinned(perturbed_solution.field, SUB, PINNED_ENERGY[(3, 0.5, 0.0, 1.8)])

    def test_three_quarter_order_solution(self):
        # sigma != 1/2 exercises the power-substituted first cell and the
        # truncated weights of the gradient integral.  Newton stops here after
        # one iteration at a residual of 5.3e-9, so the field carries the
        # rounding of the linear solve; the pins come from the separable step
        # on one BLAS thread, and two threads move them by at most 1.2e-13
        params = validate_params(4, 0.75, 0.0, 5.0 / 3.0)
        field = solve_end_perturbed(params, 0.05, CylinderGrid()).field
        assert_pinned(field, params, PINNED_ENERGY[(4, 0.75, 0.0, 5.0 / 3.0)])
