"""Newton steps of the cylinder solver: the one step over the separable and
over the banded-LU factorization against SuperLU on an independently
assembled Kronecker matrix, the choice between them, a singular Newton
matrix on either path, the matrix-free operator, its band, the stacked mode
solve, the sine transform and the capacitance matrix against their
references, the cache of the system's eps-independent part, the line
search, the end data it refuses, and the consistency of the discrete
operator with the exact solution."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hardyhenon import cylinder
from hardyhenon.cylinder import (
    _MAX_SIMILARITY_GROWTH,
    CylinderGrid,
    SolverDivergence,
    _axial_stencil,
    _banded_factor,
    _capacitance,
    _dst1,
    _mode_solver,
    _NewtonSystem,
    _separable_factor,
    psi_nodes,
    solve_cylinder_pde,
    solve_end_perturbed,
)
from hardyhenon.extension import exact_sphere_profile
from hardyhenon.params import derive_exponents, validate_params
from hardyhenon.specialfn import kappa_sigma
from hardyhenon.sphere import psi_operator

# (n, sigma, alpha, p) with J1 < 0, J1 = 0 and J1 > 0 at each sigma
TUPLES = [
    (3, 0.3, 0.0, 1.6), (3, 0.3, 0.0, 1.5), (3, 0.3, 0.5, 1.8),
    (3, 0.5, -0.5, 1.6), (3, 0.5, 0.0, 2.0), (3, 0.5, 0.0, 1.8),
    (3, 0.75, 0.0, 4.0), (3, 0.75, 0.0, 3.0), (4, 0.75, 0.0, 5.0 / 3.0),
]
GRIDS = {"default": CylinderGrid(), "71x33": CylinderGrid(-1.75, 1.75, 71, 33)}
# the refined grid costs about 0.45 s a case: one tuple per sign of J1, and
# the J1 = 0 tuple at sigma = .75, where sparse LU and the separable step
# differ most
REFINED = [TUPLES[0], TUPLES[4], TUPLES[7], TUPLES[8]]
COR11 = validate_params(4, 0.75, 0.0, 5.0 / 3.0)  # J1 = 2

# Solves on the banded-LU side of the path choice, pinned from the banded-LU
# Newton solver: the residual history and a SHA-256 digest of the field's
# bytes, the same on one and on two BLAS threads.  Both also record the
# rounding of the psi operator's fitted weights and of the exact profile's
# closed form, so a change to either re-records them.
FALLBACK = {
    # |J1| L / 2 = 10 > log(1e4) = 9.2
    "long_window": (
        CylinderGrid(-5.0, 5.0, 101, 33),
        [0.013326978432773695, 8.624550355305461e-08, 6.5333050966073544e-09],
        "37948174789f9a176d57f6b7e93b3c842c5f6d8732018ef8ddcd15766364a56f",
    ),
    # n_s = 5: J1 ds / 2 = 1.5 > 1, so the axial stencil's off-diagonals differ in sign
    "coarse_axis": (
        CylinderGrid(-3.0, 3.0, 5, 33),
        [0.013326978432773695, 4.6388259133584684e-08, 7.55642281325776e-10],
        "dcc9c6c3946620b68758f5ecf81de4781298a5621b08282043d30025fd9eaa55",
    ),
}


def assemble_linear(params, grid, L):
    """Reference for ``cylinder._NewtonSystem``'s stencil: the constant part
    of the discrete system as a sparse matrix, with its row scales.

    The interior operator is separable, so the matrix is a sum of Kronecker
    products: the axial operator T_s acts on every psi node but the flux row
    (E), the psi operator L on every interior axial row (D_int), and the
    Dirichlet end rows are identity rows.  Each row is divided by its
    diagonal.
    """
    ns, npsi = grid.n_s, grid.n_psi
    interior = np.ones(ns)
    interior[[0, -1]] = 0.0
    D_int = sp.diags(interior)
    T_s = D_int @ sp.diags(list(_axial_stencil(params, grid)), [-1, 0, 1], shape=(ns, ns))
    E = sp.diags(np.r_[0.0, np.ones(npsi - 1)])
    A = (
        sp.kron(T_s, E)
        + sp.kron(D_int, sp.csr_matrix(L))
        + sp.kron(sp.identity(ns) - D_int, sp.identity(npsi))
    ).tocsr()
    scale = 1.0 / np.maximum(np.abs(A.diagonal()), 1e-30)
    return (sp.diags(scale) @ A).tocsr(), scale


def sine_matrix(m):
    """Reference for ``cylinder._dst1``: the orthonormal DST-I as a dense
    matrix, Q_jk = sqrt(2/(m+1)) sin(pi j k/(m+1)), j, k = 1..m."""
    theta = np.arange(1, m + 1) * (math.pi / (m + 1))
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(np.arange(1, m + 1), theta))


def jacobian(A, scale, grid, d):
    """The reference Newton matrix A + diag(scale d), d on the interior flux rows."""
    flux = np.arange(1, grid.n_s - 1) * grid.n_psi
    dvec = np.zeros(A.shape[0])
    dvec[flux] = scale[flux] * d
    return (A + sp.diags(dvec)).tocsc()


def flux_derivative(params, grid, V):
    """d = kappa p |V0|^(p-1) of the field V on the interior flux rows, as
    the Newton step forms it."""
    flux = np.arange(1, grid.n_s - 1) * grid.n_psi
    return kappa_sigma(params.sigma) * params.p * np.abs(V[flux]) ** (params.p - 1.0)


def first_newton_system(params, grid, eps=0.05):
    """Psi operator, scaled matrix, row scales, residual and field at the
    start of the end-perturbed solve."""
    psi = psi_nodes(grid)
    L = psi_operator(psi, params.n, params.sigma)
    A, scale = assemble_linear(params, grid, L)
    phi = exact_sphere_profile(params, psi).phi
    ns, npsi = grid.n_s, grid.n_psi
    V = np.tile(phi, ns)
    b = np.zeros(ns * npsi)
    b[:npsi] = (1.0 + eps) * phi
    b[-npsi:] = phi
    flux = np.arange(1, ns - 1) * npsi
    kap, p = kappa_sigma(params.sigma), params.p
    F = A @ V - b * scale
    F[flux] += scale[flux] * kap * V[flux] ** p
    return L, A, scale, F, V


def reference_apply(params, grid, L):
    """Reference for ``cylinder._NewtonSystem.apply``: the same sums in
    the same order, written into a copy of the whole input (which supplies
    the Dirichlet end rows) as the apply was before it wrote only those rows."""
    lo, diag, up = _axial_stencil(params, grid)
    ns, npsi = grid.n_s, grid.n_psi
    main = np.diagonal(L).copy()
    main[1:] += diag
    scale = 1.0 / np.maximum(np.abs(main), 1e-30)
    c_main = scale * main
    c_lo, c_up = scale[1:] * lo, scale[1:] * up
    c_sub = scale[1:] * np.diagonal(L, -1)
    c_sup = scale[:-1] * np.diagonal(L, 1)
    c_sup2 = scale[0] * L[0, 2]

    def apply(x):
        V = x.reshape(ns, npsi)
        W = V[1:-1]
        out = V.copy()
        y = out[1:-1]
        y[:, 1:] = c_up * V[2:, 1:]
        y[:, 0] = c_sup2 * W[:, 2]
        y[:, :-1] += c_sup * W[:, 1:]
        y += c_main * W
        y[:, 1:] += c_sub * W[:, :-1]
        y[:, 1:] += c_lo * V[:-2, 1:]
        return out.reshape(-1)

    return apply


def reference_separable_step(grid, factors, apply, row_scale):
    """Reference for ``cylinder._NewtonSystem.step`` over ``_separable_factor``: the
    same arithmetic with scipy's ``lu_factor``/``lu_solve`` on a C-ordered
    I + D G, fresh arrays for every transform's input, the mode solve on the
    FFT output's strided imaginary part, and the d term subtracted on the
    whole grid."""
    lo, up, R, Z, G = factors.lo, factors.up, factors.R, factors.Z, np.ascontiguousarray(factors.G)
    ns, npsi = grid.n_s, grid.n_psi
    m = ns - 2
    flux_rows = np.arange(1, ns - 1) * npsi
    ext = np.zeros((2 * (m + 1), npsi))

    def solve(rhs, d, capacitance):
        out = rhs.reshape(ns, npsi)
        B = out[1:-1].copy()
        B[0, 1:] -= lo * out[0, 1:]
        B[-1, 1:] -= up * out[-1, 1:]
        B /= R[:, None]
        Y = _dst1(B, ext)
        factors.mode_solve(Y)
        load = sla.lu_solve(capacitance, d * (R * _dst1(Y[:, 0])))
        Y -= _dst1(load / R)[:, None] * Z
        np.multiply(R[:, None], _dst1(Y, ext), out=out[1:-1])
        return rhs

    def step(F, d):
        coupled = d[:, None] * G
        coupled.flat[::m + 1] += 1.0
        capacitance = sla.lu_factor(coupled)
        dvec = np.zeros(ns * npsi)
        dvec[flux_rows] = row_scale[flux_rows] * d
        x = solve(-F / row_scale, d, capacitance)
        return x + solve((-F - apply(x) - dvec * x) / row_scale, d, capacitance)

    return step


def separable_builder(params, grid):
    """The Newton step ``step(F, V)`` the solver runs on the separable path."""
    system = _NewtonSystem(params, grid)
    factor = _separable_factor(grid, system.separable, system.row_scale)
    return lambda F, V: system.step(factor, F, V)


def banded_builder(params, grid):
    """The Newton step ``step(F, V)`` the solver runs on the banded-LU path."""
    system = _NewtonSystem(params, grid)
    factor = _banded_factor(grid, system.band)
    return lambda F, V: system.step(factor, F, V)


def check_step(builder, params, grid):
    """The builder's first Newton step against SuperLU on the reference matrix."""
    _, A, scale, F, V = first_newton_system(params, grid)
    step = builder(params, grid)
    d = flux_derivative(params, grid, V)
    J = jacobian(A, scale, grid, d)
    # the Jacobian's condition number is about 1e7, so a plain sparse-LU
    # step is itself only good to about 2e-9 on the refined grid; one
    # pass of iterative refinement, as the step makes on either path, moves
    # the reference by up to 2e-10 more, and a second pass keeps that
    # motion out of the comparison (worst case measured 2.2e-10)
    lu = spla.splu(J)
    want = lu.solve(-F)
    for _ in range(2):
        want += lu.solve(-F - J @ want)
    got = step(F, V)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


SEPARABLE_CASES = pytest.mark.parametrize(
    "quad, grid",
    [(q, g) for g in GRIDS.values() for q in TUPLES] + [(q, CylinderGrid().refined()) for q in REFINED],
    ids=[f"{q}-{name}" for name in GRIDS for q in TUPLES] + [f"{q}-refined" for q in REFINED],
)


class TestSeparableStep:
    @SEPARABLE_CASES
    def test_matches_sparse_lu(self, quad, grid):
        check_step(separable_builder, validate_params(*quad), grid)

    def test_result_names_solver_and_line_search(self):
        # |J1| L / 2 = 8 on the default window: inside the similarity bound
        res = solve_end_perturbed(validate_params(3, 0.5, 0.0, 1.8), 0.05, CylinderGrid())
        assert res.linear_solver == "separable"
        assert len(res.line_search) == res.iterations == len(res.residual_history) - 1
        assert all(0.0 < lam <= 1.0 for lam in res.line_search)


class TestSeparableArithmetic:
    """The separable step and the apply against their test-side references,
    bit for bit.  Both sides run in one process, so this holds on any BLAS
    thread count."""

    @SEPARABLE_CASES
    def test_step_and_apply_match_reference_bit_for_bit(self, quad, grid):
        params = validate_params(*quad)
        L, _, _, F, V = first_newton_system(params, grid)
        system = _NewtonSystem(params, grid)
        want_apply = reference_apply(params, grid, L)
        v = np.random.default_rng(grid.n_s).standard_normal(len(system.row_scale))
        assert np.array_equal(system.apply(v), want_apply(v))
        factor = _separable_factor(grid, system.separable, system.row_scale)
        want_step = reference_separable_step(grid, system.separable, want_apply, system.row_scale)
        # a second step with other data reuses the first one's buffers
        for scale in (1.0, 1.5):
            d = flux_derivative(params, grid, scale * V)
            assert np.array_equal(system.step(factor, scale * F, scale * V), want_step(scale * F, d))


class TestCapacitanceChecks:
    """The capacitance solve refuses what ``scipy.linalg.lu_factor`` and
    ``lu_solve`` refuse; an exact zero pivot is ``TestSingularNewtonMatrix``'s."""

    GRID = GRIDS["71x33"]

    def factor(self, params=COR11, grid=GRID):
        system = _NewtonSystem(params, grid)
        return _separable_factor(grid, system.separable, system.row_scale), system.separable

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_d_is_refused(self, bad):
        factor, _ = self.factor()
        d = np.ones(self.GRID.n_s - 2)
        d[5] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            factor(d)

    def test_d_whose_product_with_G_overflows_is_refused(self):
        # every |G_ik| is below 1 on the default and 71x33 grids, where no
        # finite d overflows; here max |G| = 1.26
        params, grid = validate_params(2, 0.5, 0.0, 2.7), CylinderGrid(-4.0, 4.0, 9, 33)
        factor, factors = self.factor(params, grid)
        row = int(np.argmax(np.max(np.abs(factors.G), axis=1)))
        assert np.max(np.abs(factors.G[row])) > 1.0
        d = np.ones(grid.n_s - 2)
        d[row] = np.finfo(float).max
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(d[:, None] * factors.G))
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                factor(d)

    def test_non_finite_load_is_refused(self):
        solve = self.factor()[0](np.ones(self.GRID.n_s - 2))
        F = np.ones(self.GRID.n_s * self.GRID.n_psi)
        F[5 * self.GRID.n_psi + 3] = math.nan
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            solve(F)


class TestBandedStep:
    # the separable step's cases, where the banded step must agree with it,
    # and the grids where the path choice gives the banded step the solve
    # (measured worst 1.0e-10, on the refined grid; 1.9e-9 without the
    # step's refinement pass)
    @SEPARABLE_CASES
    def test_matches_sparse_lu(self, quad, grid):
        check_step(banded_builder, validate_params(*quad), grid)

    @pytest.mark.parametrize("case", FALLBACK.keys())
    def test_fallback_step_matches_sparse_lu(self, case):
        check_step(banded_builder, COR11, FALLBACK[case][0])


class TestSingularNewtonMatrix:
    """An exact zero pivot on either path gives no step, and the solve ends
    in a SolverDivergence that names the singular matrix, before any line
    search."""

    @pytest.mark.parametrize("path", ["separable", "banded_lu"])
    def test_zero_pivot_gives_no_step(self, path):
        if path == "separable":
            # d = 0 but in row 0, where 1 + d_0 G_00 rounds to exactly 0:
            # column 0 of I + D G is zero, and dgetrf reports it
            grid = GRIDS["71x33"]
            system = _NewtonSystem(COR11, grid)
            G = system.separable.G
            d = np.zeros(grid.n_s - 2)
            d[0] = -1.0 / G[0, 0]
            assert 1.0 + d[0] * G[0, 0] == 0.0
            factor = _separable_factor(grid, system.separable, system.row_scale)
        else:
            # an all-zero band, whose first pivot dgbtrf reports
            grid = FALLBACK["coarse_axis"][0]
            system = _NewtonSystem(COR11, grid)
            factor = _banded_factor(grid, lambda d: np.zeros_like(system.band(d)))
            d = np.ones(grid.n_s - 2)
        # d < 0 is no kappa p |V0|^(p-1), so the factor takes it directly;
        # the step passes its None on (test_solve_names_the_singular_matrix)
        assert factor(d) is None

    @pytest.mark.parametrize("factor, grid", [("_separable_factor", GRIDS["71x33"]),
                                              ("_banded_factor", FALLBACK["coarse_axis"][0])],
                             ids=["separable", "banded_lu"])
    def test_solve_names_the_singular_matrix(self, factor, grid, monkeypatch):
        calls = []
        monkeypatch.setattr(cylinder, factor, lambda *_: lambda d: calls.append(d))  # always None
        with pytest.raises(SolverDivergence, match="^Newton matrix is singular at iteration 1$") as err:
            solve_end_perturbed(COR11, 0.05, grid)
        # one factorization and the first residual: no line-search trial ran
        assert len(calls) == 1
        assert len(err.value.history) == 1


class TestNonFiniteStep:
    def test_separable_solve_names_the_non_finite_step(self):
        # (1 + 1e308) phi is finite, but the step's s-transforms of it
        # overflow: the separable factor refuses the load, and the solve
        # names the step, where it once leaked that ValueError after numpy
        # overflow warnings (which pyproject turns into errors here)
        with pytest.raises(SolverDivergence, match="^Newton step is not finite at iteration 1$") as err:
            solve_end_perturbed(validate_params(3, 0.5, 0.0, 1.8), 1e308, GRIDS["71x33"])
        assert isinstance(err.value.__cause__, ValueError)
        assert len(err.value.history) == 1


class TestLineSearch:
    def test_stalled_solve_raises(self):
        # no step lowers the residual below 2.6e-4; one that raises it (to
        # 0.46) ends in a field 156% off phi that passes the residual test.
        # The Newton matrix is not near-singular here: the solution exists
        # (continuation in eps from phi, in steps of 0.001, reaches
        # eps = 0.097 on this 161x65 grid), and damped Newton started from
        # phi does not reach it
        with pytest.raises(SolverDivergence, match="stalled") as err:
            solve_end_perturbed(validate_params(4, 0.5, 0.0, 1.5), 0.05, CylinderGrid())
        history = err.value.history
        assert all(a > b for a, b in zip(history, history[1:]))
        assert history[-1] > 1e-8

    def test_negative_flux_values_are_projected(self):
        # end data 0.01 phi and phi: the first full steps take V0 below 0 on
        # the interior flux rows, and the projected trials converge in 7
        # iterations (residual 5.9e-12, min V0 3.3e-3 on one and two BLAS
        # threads)
        params, grid = validate_params(3, 0.5, 0.0, 1.8), CylinderGrid(-4.0, 4.0, 81, 33)
        phi = exact_sphere_profile(params, psi_nodes(grid)).phi
        res = solve_cylinder_pde(params, 0.01 * phi, phi, grid)
        assert res.projected_negative
        assert res.iterations == 7
        assert res.line_search == [1 / 32, 1 / 4, 1 / 4, 1 / 2, 1.0, 1.0, 1.0]
        assert res.residual_norm <= 1e-8
        assert np.min(res.field.values[1:-1, 0]) > 1e-3


class TestPathChoice:
    def test_cases_sit_outside_the_separable_range(self):
        J1 = derive_exponents(COR11).J1
        grid = FALLBACK["long_window"][0]
        assert 0.5 * abs(J1) * (grid.s_max - grid.s_min) > math.log(_MAX_SIMILARITY_GROWTH)
        grid = FALLBACK["coarse_axis"][0]
        assert 0.5 * J1 * (grid.s_max - grid.s_min) / (grid.n_s - 1) > 1.0

    @pytest.mark.parametrize("case", FALLBACK.keys())
    def test_fallback_is_the_banded_lu_solve(self, case, monkeypatch):
        grid, history, digest = FALLBACK[case]
        L = psi_operator(psi_nodes(grid), COR11.n, COR11.sigma)
        assert _NewtonSystem(COR11, grid).separable is None
        res = solve_end_perturbed(COR11, 0.05, grid)
        assert res.linear_solver == "banded_lu"
        assert res.residual_history == history
        assert hashlib.sha256(res.field.values.tobytes()).hexdigest() == digest
        # the same solve with SuperLU's factors of the assembled Jacobian in
        # place of the banded LU's, under the same refinement pass (measured
        # 7.3e-12 on long_window, 9.4e-12 on coarse_axis)
        A, scale = assemble_linear(COR11, grid, L)
        calls = []

        def superlu_factor(d):
            calls.append(d)
            return spla.splu(jacobian(A, scale, grid, d)).solve

        # the banded factor is built per solve, so the patch reaches a solve
        # on a warm cache too; without it this compares the solve with itself
        monkeypatch.setattr(cylinder, "_banded_factor", lambda *_: superlu_factor)
        want = solve_end_perturbed(COR11, 0.05, grid)
        assert len(calls) == want.iterations >= 1
        want = want.field.values
        assert np.max(np.abs(res.field.values - want)) <= 1e-10 * np.max(np.abs(want))

    def test_window_inside_the_bound_is_separable(self):
        # |J1| L / 2 = 8 on the default window
        res = solve_end_perturbed(COR11, 0.05, CylinderGrid())
        assert res.linear_solver == "separable"


# the default, refined and 71x33 grids and both sides of the path choice
OPERATOR_GRIDS = {**GRIDS, "refined": CylinderGrid().refined(),
                  **{name: case[0] for name, case in FALLBACK.items()}}


class TestLinearOperator:
    @pytest.mark.parametrize("grid", OPERATOR_GRIDS.values(), ids=OPERATOR_GRIDS.keys())
    @pytest.mark.parametrize("n", (2, 3, 4, 10))
    def test_apply_matches_assembled_matrix(self, grid, n):
        # summed in the order the matrix stores each row, the apply
        # reproduces the sparse product exactly; summed in the other order
        # it differed by at most 2 eps of sum_k |a_ik v_k|.  The band holds
        # the Jacobian's entries exactly, at dgbtrf's positions, and nothing else.
        rng = np.random.default_rng(n)
        psi = psi_nodes(grid)
        npsi = grid.n_psi
        for sigma in (0.05, 0.5, 0.95):
            params = validate_params(n, sigma, 0.0, 1.8)
            L = psi_operator(psi, n, sigma)
            A, scale = assemble_linear(params, grid, L)
            system = _NewtonSystem(params, grid)
            np.testing.assert_array_equal(system.row_scale, scale)
            np.testing.assert_array_equal(system.flux_rows, np.arange(1, grid.n_s - 1) * npsi)
            assert np.all(scale[system.flux_rows] == system.flux_scale)
            v = rng.standard_normal(A.shape[0])
            bound = 4.0 * np.finfo(float).eps * (abs(A) @ np.abs(v))
            assert np.all(np.abs(system.apply(v) - A @ v) <= bound)
            d = rng.random(grid.n_s - 2)
            J = jacobian(A, scale, grid, d).tocoo()
            ab = system.band(d)
            assert ab.shape == (3 * npsi + 1, A.shape[0]) and ab.flags.f_contiguous
            np.testing.assert_array_equal(ab[2 * npsi + J.row - J.col, J.col], J.data)
            assert np.count_nonzero(ab) == np.count_nonzero(J.data)

    @SEPARABLE_CASES
    def test_stacked_mode_solve_matches_dense(self, quad, grid):
        # measured: backward error at most 5.4 eps per row, and at most
        # 4.1e-10 relative from the dense solve, in mode 0 of (3, .75, 0, 3)
        # on the refined grid, where cond(M_0) is about 1e10 and per-mode
        # banded LU and the dense solve each miss an accurate solution by
        # as much
        params = validate_params(*quad)
        lo, diag, up = _axial_stencil(params, grid)
        m, npsi = grid.n_s - 2, grid.n_psi
        lam = diag + 2.0 * math.sqrt(lo * up) * np.cos(np.arange(1, m + 1) * (math.pi / (m + 1)))
        L = psi_operator(psi_nodes(grid), params.n, params.sigma)
        Y = np.random.default_rng(0).standard_normal((m, npsi))
        got = Y.copy()
        _mode_solver(L, lam)(got)
        E = np.diag(np.r_[0.0, np.ones(npsi - 1)])
        for j in range(m):
            M = L + lam[j] * E
            want = np.linalg.solve(M, Y[j])
            assert np.max(np.abs(got[j] - want)) <= 2e-9 * np.max(np.abs(want))
            backward = np.abs(M @ got[j] - Y[j]) / (np.abs(M) @ np.abs(got[j]) + np.abs(Y[j]))
            assert np.max(backward) <= 16.0 * np.finfo(float).eps

    def test_unfoldable_flux_row_is_refused(self):
        # psi_operator's L is cached and read-only, so the edit goes into a copy
        L = psi_operator(psi_nodes(CylinderGrid()), 3, 0.5).copy()
        L[0, 0] = 0.0
        assert _mode_solver(L, np.ones(5)) is None


class TestNewtonSystemCache:
    """The eps-independent part of the Newton system is built once per (params, grid)."""

    CASES = pytest.mark.parametrize("grid, solver", [(GRIDS["71x33"], "separable"),
                                                     (FALLBACK["coarse_axis"][0], "banded_lu")],
                                    ids=["separable", "coarse_axis"])

    @CASES
    def test_built_once_per_params_and_grid(self, grid, solver, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return psi_operator(*args)

        monkeypatch.setattr(cylinder, "psi_operator", counted)
        cylinder._newton_system.cache_clear()
        res = solve_end_perturbed(COR11, 0.05, grid)
        assert res.linear_solver == solver and res.iterations >= 1
        assert len(calls) == 1
        res = solve_end_perturbed(COR11, 0.02, grid)
        assert res.linear_solver == solver and res.iterations >= 1
        assert len(calls) == 1
        info = cylinder._newton_system.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @CASES
    def test_warm_solve_matches_cold_bit_for_bit(self, grid, solver):
        cylinder._newton_system.cache_clear()
        cold = solve_end_perturbed(COR11, 0.05, grid)
        solve_end_perturbed(COR11, 0.02, grid)
        warm = solve_end_perturbed(COR11, 0.05, grid)
        assert cylinder._newton_system.cache_info().misses == 1
        assert warm.linear_solver == cold.linear_solver == solver
        assert warm.field.values.tobytes() == cold.field.values.tobytes()
        assert warm.residual_history == cold.residual_history

    def test_cached_arrays_are_read_only(self):
        system = cylinder._newton_system(COR11, GRIDS["71x33"])
        separable = system.separable
        for a in (system.stencil, system.row_scale, system.flux_rows, separable.R, separable.Z, separable.G,
                  separable.G_row_max):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    def test_cache_is_bounded(self):
        maxsize = cylinder._newton_system.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 2):
            cylinder._newton_system(COR11, CylinderGrid(n_s=9 + 2 * k, n_psi=9))
        assert cylinder._newton_system.cache_info().currsize == maxsize


# every OPERATOR_GRIDS grid, and a fine axial grid where m = 1279
TRANSFORM_GRIDS = {**OPERATOR_GRIDS, "1281x33": CylinderGrid(n_s=1281, n_psi=33)}


class TestSeparableTransforms:
    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS.values(), ids=TRANSFORM_GRIDS.keys())
    def test_fft_sine_transform_matches_sine_matrix(self, grid):
        # measured at most 1.5e-13 max|X|, at m = 1279
        m = grid.n_s - 2
        Q = sine_matrix(m)
        X = np.random.default_rng(m).standard_normal((m, grid.n_psi))
        bound = 1e-12 * np.max(np.abs(X))
        assert np.max(np.abs(_dst1(X) - Q @ X)) <= bound
        assert np.max(np.abs(_dst1(X[:, 0]) - Q @ X[:, 0])) <= bound

    @pytest.mark.parametrize("grid", TRANSFORM_GRIDS.values(), ids=TRANSFORM_GRIDS.keys())
    @pytest.mark.parametrize("quad", [(3, 0.5, 0.0, 1.8), (3, 0.3, 0.0, 1.6)], ids=["J1>0", "J1<0"])
    def test_closed_form_capacitance_matches_dense_product(self, grid, quad):
        # g and R as the separable step builds them; measured at most 1.2e-13
        # relative, at m = 1279.  Both sides carry rounding of about
        # eps max|g| R_i/R_k per entry, so at J1 = 2, where R_m/R_1 = 2.7e3,
        # they differ by 1.4e-12 relative while Q diag(g) Q agrees to 4e-15
        params = validate_params(*quad)
        lo, diag, up = _axial_stencil(params, grid)
        m = grid.n_s - 2
        lam = diag + 2.0 * math.sqrt(lo * up) * np.cos(np.arange(1, m + 1) * (math.pi / (m + 1)))
        R = math.sqrt(lo / up) ** (np.arange(1, m + 1) - 0.5 * (m + 1))
        Z = np.zeros((m, grid.n_psi))
        Z[:, 0] = 1.0
        _mode_solver(psi_operator(psi_nodes(grid), params.n, params.sigma), lam)(Z)
        g = Z[:, 0]
        Q = sine_matrix(m)
        want = (R[:, None] * Q) @ (g[:, None] * Q / R[None, :])
        assert np.max(np.abs(_capacitance(g, R) - want)) <= 1e-12 * np.max(np.abs(want))


class TestEndData:
    @pytest.mark.parametrize("name, bad", [("boundary_left", math.nan), ("boundary_right", math.inf),
                                           ("initial", math.nan)])
    def test_non_finite_data_are_refused(self, name, bad):
        # a NaN passes the positivity test; unchecked, its NaN residual
        # passed the tolerance test and returned a NaN field as converged
        grid = GRIDS["71x33"]
        phi = exact_sphere_profile(COR11, psi_nodes(grid)).phi
        data = {"boundary_left": phi.copy(), "boundary_right": phi.copy(),
                "initial": np.tile(phi, (grid.n_s, 1))}
        data[name].flat[3] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            solve_cylinder_pde(COR11, grid=grid, **data)

    def test_negative_initial_flux_value_is_refused(self):
        # V0^p is NaN below 0: unchecked, the NaN residual failed the
        # tolerance test's "greater than" and returned as converged after 0
        # iterations
        grid = CylinderGrid()
        phi = exact_sphere_profile(COR11, psi_nodes(grid)).phi
        initial = np.tile(phi, (grid.n_s, 1))
        initial[80, 0] = -0.1
        with pytest.raises(ValueError, match="^initial must be non-negative at psi = 0"):
            solve_cylinder_pde(COR11, phi, phi, grid, initial=initial)

    @pytest.mark.parametrize("where", ["initial", "boundary_left"])
    def test_non_finite_residual_raises(self, where):
        # finite data whose V0^p overflows: the solve stops at the first
        # residual, where it went on into the step before
        grid = GRIDS["71x33"]
        phi = exact_sphere_profile(COR11, psi_nodes(grid)).phi
        data = {"boundary_left": phi.copy(), "boundary_right": phi,
                "initial": np.tile(phi, (grid.n_s, 1))}
        if where == "initial":
            data["initial"][40, 0] = 1e300
        else:
            data["boundary_left"] *= 1e300
            del data["initial"]
        with np.errstate(over="ignore"), pytest.raises(SolverDivergence, match="not finite") as err:
            solve_cylinder_pde(COR11, grid=grid, **data)
        assert err.value.history == [math.inf]

    @pytest.mark.parametrize("shape", [(33, 71), (71, 32)], ids=["transposed", "short"])
    def test_misshapen_initial_is_refused(self, shape):
        # a transposed guess has the right size: unchecked, it was reshaped
        # into a scrambled start and the solve converged from it
        grid = GRIDS["71x33"]
        phi = exact_sphere_profile(COR11, psi_nodes(grid)).phi
        initial = np.ones(shape)
        with pytest.raises(ValueError, match=r"^initial must have shape \(n_s, n_psi\) = \(71, 33\)"):
            solve_cylinder_pde(COR11, phi, phi, grid, initial=initial)


class TestGrid:
    @pytest.mark.parametrize("count", [81.0, True, "81"], ids=["float", "bool", "str"])
    def test_non_integral_count_is_refused(self, count):
        # 81.0 once failed later with a numpy TypeError, and True was taken as 1
        with pytest.raises(ValueError, match=f"^n_s must be an integer, got n_s={count!r}$"):
            CylinderGrid(n_s=count)

    @pytest.mark.parametrize("name", ["n_s", "n_psi"])
    def test_count_below_five_is_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 5, got {name}=4$"):
            CylinderGrid(**{name: 4})

    @pytest.mark.parametrize("s_min, s_max", [
        (math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0), (1.0, math.inf), (2.0, 1.0), (1.0, 1.0),
    ], ids=["nan-low", "nan-high", "inf-low", "inf-high", "reversed", "empty"])
    def test_axial_range_must_be_finite_and_ordered(self, s_min, s_max):
        # nan once gave NaN rows with exit 0, and -inf printed numpy warnings
        with pytest.raises(ValueError, match=rf"^axial range needs finite s_min < s_max, got s_min={s_min},"):
            CylinderGrid(s_min, s_max, 9, 9)

    @pytest.mark.parametrize("s_min, s_max, n_s", [
        (-1e308, 1e308, 9), (-1e200, 1e200, 9), (0.0, 1e-160, 9), (0.0, 1e-200, 9), (0.0, 1e-320, 161),
    ], ids=["width-overflows", "ds2-overflows", "inverse-overflows", "ds2-underflows", "subnormal"])
    def test_axial_step_beyond_a_double_is_refused(self, s_min, s_max, n_s):
        # each once gave the axial stencil a coefficient of inf (ds = inf
        # switches it off, 1/ds^2 = inf stalls the solve) or ended in an
        # OverflowError or ZeroDivisionError in _axial_stencil
        with pytest.raises(ValueError, match=r"^axial range must keep the width s_max - s_min, ds\^2 and "
                                             r"1/ds\^2 finite and positive in a double, got s_min="):
            CylinderGrid(s_min, s_max, n_s, 9)

    def test_numpy_integer_count_is_accepted(self):
        assert CylinderGrid(n_s=np.int64(9), n_psi=9) == CylinderGrid(n_s=9, n_psi=9)


class TestExactSolutionConsistency:
    """With phi as the data at both ends, the exact profile phi solves the
    continuous problem, so the discrete answer measures the psi operator's
    consistency error: its stencil rows and its psi = 0 flux row."""

    @staticmethod
    def error(params, grid):
        phi = exact_sphere_profile(params, psi_nodes(grid)).phi
        res = solve_cylinder_pde(params, phi, phi, grid, initial=np.tile(phi, (grid.n_s, 1)),
                                 newton_tol=1e-13)
        return np.max(np.abs(res.field.values - phi)) / np.max(phi)

    @pytest.mark.parametrize("quad", [(3, 0.5, 0.0, 1.8), (3, 0.5, 0.0, 2.0), (3, 0.5, -0.5, 1.6)])
    def test_half_order_converges_to_phi(self, quad):
        # measured: 6.0e-4 -> 1.5e-4, 7.7e-4 -> 1.9e-4 and 4.9e-4 -> 1.2e-4,
        # second order in psi (the field is constant in s, where the axial
        # stencil is exact)
        params = validate_params(*quad)
        coarse = self.error(params, CylinderGrid())
        fine = self.error(params, CylinderGrid(n_psi=129))
        assert coarse <= 1e-3
        assert coarse / fine >= 3.0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: psi stencil inconsistent for sigma != 1/2")
    @pytest.mark.parametrize("quad", [(3, 0.45, 0.0, 1.8), (3, 0.4, 0.0, 1.8),
                                      (4, 0.75, 0.0, 5.0 / 3.0), (3, 0.7, 0.0, 2.5)])
    def test_other_orders_converge_to_phi(self, quad):
        # measured: 0.22, 0.55, 6.1e-2 and 2.3e-3 on 65 psi nodes, with
        # coarse / fine ratios 1.00, 1.00, 1.005 and 1.07: the first interior
        # rows carry an O(1) error near the sin^{2 sigma} edge that refinement
        # does not shrink
        params = validate_params(*quad)
        coarse = self.error(params, CylinderGrid())
        fine = self.error(params, CylinderGrid(n_psi=129))
        assert coarse / fine >= 3.0
