"""The cached psi discretization: one read-only rule per (psi grid, n, sigma)."""

import math

import numpy as np
import pytest

from hardyhenon import cylinder, sphere
from hardyhenon.cylinder import CylinderGrid, psi_nodes, solve_end_perturbed
from hardyhenon.energy import energy_trace
from hardyhenon.extension import exact_sphere_profile, verify_sphere_ode
from hardyhenon.params import validate_params
from hardyhenon.quadrature import gauss_legendre
from hardyhenon.sphere import (
    cell_weights,
    derivative_weights,
    edge_model,
    gradient_integral,
    psi_operator,
    psi_rule,
)

GRIDS = {"default": CylinderGrid(), "refined": CylinderGrid().refined(),
         "17": CylinderGrid(n_psi=17), "5": CylinderGrid(n_psi=5)}
NS = (2, 3, 4, 10)
SIGMAS = (0.05, 0.3, 0.5, 0.75)


def direct_gradient_integral(values, psi, n, sigma):
    """The gradient term from the pieces themselves, in the arithmetic order
    of the cached rule's edge quadrature."""
    w = derivative_weights(psi)[0]
    d = np.empty_like(values)
    d[..., 1:-1] = w[:, 0] * values[..., :-2] + w[:, 1] * values[..., 1:-1] + w[:, 2] * values[..., 2:]
    d[..., 0] = (values[..., 1] - values[..., 0]) / (psi[1] - psi[0])
    d[..., -1] = (values[..., -1] - values[..., -2]) / (psi[-1] - psi[-2])
    total = np.sum(cell_weights(psi, n, sigma, start_cell=2) * d ** 2, axis=-1)
    ce = values[..., :3] @ edge_model(psi, sigma).T
    c, e = ce[..., 0, None], ce[..., 1, None]
    xg, wg = gauss_legendre(16)
    v = (xg + 1.0) / 2.0
    ex = 1.0 / (2.0 * sigma)
    pp = psi[2] * v ** ex
    jac = psi[2] * ex * v ** (ex - 1.0)
    dv = (2.0 * sigma * c * np.sin(pp) ** (2.0 * sigma - 1.0) * np.cos(pp)
          + 2.0 * e * np.sin(pp) * np.cos(pp))
    wfun = np.sin(pp) ** (1.0 - 2.0 * sigma) * np.cos(pp) ** (n - 1)
    return total + np.sum(wg / 2.0 * jac * dv ** 2 * wfun, axis=-1)


class TestPsiRule:
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_cached_rule_matches_a_fresh_build(self, grid):
        psi = psi_nodes(grid)
        for n in NS:
            for sigma in SIGMAS:
                # rows with a sin^{2 sigma} edge, so both terms of the edge model count
                values = 2.0 + np.cos(np.outer(np.arange(1, 4), psi)) - np.sin(psi) ** (2.0 * sigma)
                rule = psi_rule(psi, n, sigma)
                fresh = sphere._psi_rule.__wrapped__(psi.tobytes(), n, sigma)
                for got, want in zip(rule, fresh):
                    np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(rule.psi, psi)
                for got, want in zip((rule.d1, rule.d2), derivative_weights(psi)):
                    np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(rule.edge, edge_model(psi, sigma))
                np.testing.assert_array_equal(rule.w0, cell_weights(psi, n, sigma))
                np.testing.assert_array_equal(rule.w2, cell_weights(psi, n, sigma, start_cell=2))
                np.testing.assert_array_equal(gradient_integral(values, psi, n, sigma),
                                              direct_gradient_integral(values, psi, n, sigma))

    def test_arrays_are_read_only(self):
        rule = psi_rule(psi_nodes(CylinderGrid()), 3, 0.5)
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0
        assert psi_operator(rule.psi, 3, 0.5) is rule.L

    def test_alpha_and_p_share_one_entry(self):
        psi = psi_nodes(CylinderGrid())
        sphere._psi_rule.cache_clear()
        for quad in ((3, 0.5, 0.0, 1.8), (3, 0.5, -0.5, 1.6), (3, 0.5, 0.0, 2.0)):
            params = validate_params(*quad)
            verify_sphere_ode(exact_sphere_profile(params, psi), params)
        info = sphere._psi_rule.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        a, b = validate_params(3, 0.5, 0.0, 1.8), validate_params(3, 0.5, -0.5, 1.6)
        assert psi_rule(psi, a.n, a.sigma) is psi_rule(psi, b.n, b.sigma)

    def test_solver_and_energy_share_one_entry(self):
        params = validate_params(3, 0.5, 0.0, 1.8)
        sphere._psi_rule.cache_clear()
        cylinder._newton_system.cache_clear()  # so that the solve builds its system
        res = solve_end_perturbed(params, 0.05, CylinderGrid())
        energy_trace(res.field, (-3.5, 3.5), params)
        assert sphere._psi_rule.cache_info().misses == 1

    def test_other_grid_n_or_sigma_is_another_entry(self):
        psi = psi_nodes(CylinderGrid())
        rule = psi_rule(psi, 3, 0.5)
        others = [psi_rule(psi, 3, 0.3), psi_rule(psi, 4, 0.5),
                  psi_rule(psi_nodes(CylinderGrid(n_psi=33)), 3, 0.5)]
        assert all(other is not rule for other in others)
        assert len({id(other) for other in others}) == len(others)

    def test_caller_may_change_its_grid_afterwards(self):
        psi = psi_nodes(CylinderGrid(n_psi=29)).copy()
        kept = psi.copy()
        rule = psi_rule(psi, 3, 0.5)
        L = rule.L.copy()
        psi[5] += 1e-3
        np.testing.assert_array_equal(rule.psi, kept)
        assert psi_rule(kept, 3, 0.5) is rule
        np.testing.assert_array_equal(psi_rule(kept, 3, 0.5).L, L)
        assert not np.array_equal(psi_rule(psi, 3, 0.5).L, L)

    def test_cache_is_bounded(self):
        maxsize = sphere._psi_rule.cache_info().maxsize
        assert maxsize is not None
        psi = psi_nodes(CylinderGrid(n_psi=9))
        for k in range(maxsize + 3):
            psi_rule(psi, 3, 0.1 + 0.01 * k)
        assert sphere._psi_rule.cache_info().currsize == maxsize

    def test_grid_off_the_edge_rejected(self):
        psi = psi_nodes(CylinderGrid())[1:]
        with pytest.raises(ValueError, match="psi grid"):
            psi_rule(psi, 3, 0.5)
        with pytest.raises(ValueError, match="psi grid"):
            psi_operator(np.linspace(0.1, math.pi / 2.0, 9), 3, 0.5)

    @pytest.mark.parametrize("psi", [[0.0, 0.5, 0.2, 1.0, 1.5], [0.0, 0.5, 0.5, 1.0, 1.5],
                                     [0.0, 0.5, 1.0, np.inf], [0.0, 0.5, np.nan, 1.5]],
                             ids=["unordered", "repeated", "infinite", "nan"])
    def test_grid_not_finite_and_increasing_rejected(self, psi):
        # the unordered and repeated grids are valid profile grids, so only
        # psi_rule's check stops verify_sphere_ode on them
        params = validate_params(3, 0.5, 0.0, 1.8)
        with pytest.raises(ValueError, match="strictly increasing"):
            psi_rule(np.array(psi), 3, 0.5)
        if np.all(np.isfinite(psi)):
            with pytest.raises(ValueError, match="strictly increasing"):
                verify_sphere_ode(exact_sphere_profile(params, psi), params)

    @pytest.mark.parametrize("psi", [[], [0.0], [0.0, 1.0], [0.0, 0.5, 1.0]],
                             ids=["empty", "one", "two", "three"])
    def test_grid_with_fewer_than_four_nodes_rejected(self, psi):
        # these once raised IndexError, or a numpy error from cell_weights
        with pytest.raises(ValueError, match="at least 4 nodes"):
            psi_rule(np.array(psi), 3, 0.5)

    def test_four_node_grid_builds(self):
        rule = psi_rule(np.array([0.0, 0.5, 1.0, math.pi / 2.0]), 3, 0.5)
        assert rule.L.shape == (4, 4) and np.all(np.isfinite(rule.L))

    def test_grid_that_is_not_1d_rejected(self):
        psi = psi_nodes(CylinderGrid(n_psi=9))
        for grid in (np.stack([psi, psi]), np.float64(0.0)):
            with pytest.raises(ValueError, match="1-D"):
                psi_rule(grid, 3, 0.5)
