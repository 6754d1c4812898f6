"""Acceptance battery: the ten verification criteria with pinned tolerances.

Each criterion function returns a CriterionResult with the measured
quantities; ``run_all`` executes the battery in order.  Configurations and
seeds are fixed so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cylinder import CylinderGrid, psi_nodes, solve_end_perturbed
from .energy import (
    MonotonicityVerdict,
    derivative_identity_check,
    energy_halfsphere,
    energy_trace,
    monotonicity_verdict,
)
from .extension import (
    BARRIER_DELTA,
    BARRIER_LEVELS,
    BARRIER_MU,
    BARRIER_PSI,
    FowlerField,
    _barrier_ladder,
    _profile_quadrature,
    exact_extension_field,
    exact_sphere_profile,
)
from .fraclap import verify_fall_identity
from .kelvin import _biconditionals, constant_invariance, kelvin_exponent
from .params import classify_regime, derive_exponents, validate_params
from .quadrature import gauss_jacobi_01, gauss_legendre
from .specialfn import (
    classical_limit_constant,
    kappa_sigma,
    lambda_multiplier,
    poisson_normalizer,
    singular_constant,
    unit_sphere_area,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

SEED = 20240817

#: Gates shared with the CLI's --tol-fall, --tol-invariance and --tol-order
#: defaults: the singular-solution identity's relative error, the amplitude's
#: relative change under the inversion, and the least barrier-residual decay
#: ratio per halving (second order gives 4)
FALL_TOL, INVARIANCE_TOL, BARRIER_ORDER = 1e-6, 1e-12, 3.2

FALL_TUPLES = [
    (3, 0.50, 0.0, 2.0),
    (4, 0.75, -0.5, 1.9),
    (2, 0.30, 0.2, 3.0),
    (3, 0.25, 0.1, 2.5),
    (5, 0.60, -0.3, 1.5),
    (3, 0.50, 0.5, 2.2),
]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.index:2d}] {status}  {self.name}  ({self.elapsed:.2f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - t0
        return result

    return wrapper


@_timed
def criterion_1_lambda_symmetry() -> CriterionResult:
    """Evenness of the multiplier over the admissible argument strip."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        for sigma in (0.1, 0.25, 0.5, 0.75, 0.9):
            half = (n - 2.0 * sigma) / 2.0
            taus = np.linspace(-half + 0.01, half - 0.01, 41)
            for tau in taus:
                a = lambda_multiplier(float(tau), n, sigma)
                b = lambda_multiplier(float(-tau), n, sigma)
                worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return CriterionResult(1, "multiplier symmetry", worst < 1e-12, {"max_rel_asymmetry": worst})


@_timed
def criterion_2_fall_identity() -> CriterionResult:
    """Quadrature of the operator on the exact power solution vs closed form."""
    radii = [0.5, 1.0, 2.0]
    errors = {}
    for tup in FALL_TUPLES:
        params = validate_params(*tup)
        report = verify_fall_identity(params, radii)
        errors[str(tup)] = report.max_rel_error
    worst = max(errors.values())
    return CriterionResult(2, "singular-solution identity", worst < FALL_TOL,
                           {"per_tuple_max_rel_error": errors, "worst": worst})


def poisson_unit_mass(n: int, sigma: float) -> float:
    """Total mass of the extension kernel at unit elevation, by radial quadrature."""
    m = n + 2.0 * sigma
    xg, wg = gauss_legendre(200)
    x01 = (xg + 1.0) / 2.0
    w01 = wg / 2.0
    inner = float(np.sum(w01 * x01 ** (n - 1) * (1.0 + x01 ** 2) ** (-m / 2.0)))
    s, w = gauss_jacobi_01(200, 2.0 * sigma - 1.0)
    outer = float(np.sum(w * (1.0 + s ** 2) ** (-m / 2.0)))
    return poisson_normalizer(n, sigma) * unit_sphere_area(n) * (inner + outer)


@_timed
def criterion_3_normalizers() -> CriterionResult:
    """Flux constant at sigma = 1/2 and kernel unit mass."""
    kap_err = abs(kappa_sigma(0.5) - 1.0)
    mass_errors = {}
    for n, sigma in ((2, 0.3), (3, 0.5), (4, 0.75)):
        mass_errors[f"({n},{sigma})"] = abs(poisson_unit_mass(n, sigma) - 1.0)
    passed = kap_err < 1e-14 and max(mass_errors.values()) < 1e-8
    return CriterionResult(3, "kernel normalizers", passed,
                           {"kappa_half_err": kap_err, "unit_mass_errors": mass_errors})


@_timed
def criterion_4_classical_limit() -> CriterionResult:
    """Amplitude near sigma = 1 against the second-order closed form.

    The gate is the relative error of the amplitude C itself.  The multiplier
    Lambda = C^{p-1} deviates by a larger O(1 - sigma) amount (slope up to
    ~9.6); it is reported alongside but not gated.
    """
    sigma = 0.999
    amp_errors = {}
    mult_errors = {}
    for n in (3, 4):
        for alpha in (-0.5, 0.0, 0.5):
            lo = (n + alpha) / (n - 2.0)
            hi = (n + 2.0) / (n - 2.0)
            p = 0.5 * (lo + hi)
            params = validate_params(n, sigma, alpha, p)
            got = singular_constant(params)
            want = classical_limit_constant(n, alpha, p)
            case = f"(n={n},alpha={alpha})"
            amp_errors[case] = abs(got - want) / want
            mult_errors[case] = abs(got ** (p - 1.0) - want ** (p - 1.0)) / want ** (p - 1.0)
    worst = max(amp_errors.values())
    return CriterionResult(4, "second-order limit of the amplitude", worst < 5e-3,
                           {"per_case_amplitude_rel_error": amp_errors,
                            "worst_amplitude_rel_error": worst,
                            "per_case_multiplier_rel_error": mult_errors,
                            "worst_multiplier_rel_error": max(mult_errors.values())})


@_timed
def criterion_5_exact_energy() -> CriterionResult:
    """Constancy and closed-form value of the energy on the exact solution, and
    its closed-form profile against the Poisson quadrature of its trace."""
    params = validate_params(3, 0.5, 0.0, 2.0)
    C = singular_constant(params)
    target = kappa_sigma(0.5) * (1.0 / 3.0 - 0.5) * C ** 3 * unit_sphere_area(3)
    grid = CylinderGrid()
    psi = psi_nodes(grid)
    r_grid = np.exp(np.linspace(math.log(0.2), math.log(5.0), 161))
    fld = exact_extension_field(params, r_grid, psi)
    sample = [r for r in r_grid if 0.25 <= r <= 4.0]
    energies = np.array([energy_halfsphere(fld, r, params) for r in sample[:: len(sample) // 16]])
    drift = float((energies.max() - energies.min()) / abs(target))
    value_err = float(np.max(np.abs(energies - target)) / abs(target))
    inside = psi[psi > 0.0]
    phi = exact_sphere_profile(params, inside).phi
    miss = float(np.max(np.abs(_profile_quadrature(params, inside) / phi - 1.0)))
    passed = drift < 1e-3 and value_err < 1e-3 and miss < 1e-6
    return CriterionResult(5, "exact-solution energy", passed,
                           {"target": target, "relative_drift": drift, "value_rel_error": value_err,
                            "profile_quadrature_miss": miss})


def _fd_budget(trace_coarse, trace_fine) -> float:
    """Maximum shift of the finite-difference slope under one grid refinement."""
    sf = trace_fine.s_values
    idx = [int(np.argmin(np.abs(sf - s))) for s in trace_coarse.s_values]
    return float(np.max(np.abs(trace_coarse.dE_fd - trace_fine.dE_fd[idx])))


@_timed
def criterion_6_monotonicity_signs() -> CriterionResult:
    """Slope signs on solved perturbed fields in all three exponent regimes."""
    details = {}
    ok = True
    window = (-3.5, 3.5)
    for tag, tup, eps in (
        ("subcritical", (3, 0.5, 0.0, 1.8), 0.05),
        ("supercritical", (3, 0.5, -0.5, 1.6), 0.05),
    ):
        params = validate_params(*tup)
        J1 = derive_exponents(params).J1
        sgn = 1.0 if J1 > 0 else -1.0
        coarse = solve_end_perturbed(params, eps, CylinderGrid())
        fine = solve_end_perturbed(params, eps, CylinderGrid().refined())
        tr = energy_trace(coarse.field, window, params)
        tr_fine = energy_trace(fine.field, window, params)
        budget = _fd_budget(tr, tr_fine)
        formula_sign_ok = bool(np.all(sgn * tr.dE_formula >= 0.0))
        fd_ok = bool(np.min(sgn * tr.dE_fd) >= -budget)
        verdict = monotonicity_verdict(tr, budget=budget)
        expected = (
            MonotonicityVerdict.NON_DECREASING if J1 > 0 else MonotonicityVerdict.NON_INCREASING
        )
        case_ok = formula_sign_ok and fd_ok and verdict is expected
        details[tag] = {
            "J1": J1,
            "formula_sign_ok": formula_sign_ok,
            "fd_min_vs_budget": [float(np.min(sgn * tr.dE_fd)), budget],
            "verdict": verdict.value,
        }
        ok = ok and case_ok

    params = validate_params(3, 0.5, 0.0, 2.0)
    crit = solve_end_perturbed(params, 0.005, CylinderGrid().refined())
    tr = energy_trace(crit.field, (-3.0, 3.0), params)
    scale = float(np.max(np.abs(tr.E)))
    drift = float((tr.E.max() - tr.E.min()) / scale)
    verdict = monotonicity_verdict(tr, budget=1e-6 * scale)
    crit_ok = drift < 1e-6 and verdict is MonotonicityVerdict.CONSTANT
    details["critical"] = {"J1": tr.J1, "drift": drift, "verdict": verdict.value}
    ok = ok and crit_ok
    return CriterionResult(6, "monotonicity signs", ok, details)


@_timed
def criterion_7_derivative_identity() -> CriterionResult:
    """Two-sided slope identity on solved fields; O(1) failure on a non-solution."""
    params = validate_params(3, 0.5, 0.0, 1.8)
    window = (-3.0, -2.0)
    coarse = solve_end_perturbed(params, 0.05, CylinderGrid())
    tr = energy_trace(coarse.field, window, params)
    mismatch = derivative_identity_check(tr)
    fine = solve_end_perturbed(params, 0.05, CylinderGrid().refined())
    tr_fine = energy_trace(fine.field, window, params)
    mismatch_fine = derivative_identity_check(tr_fine)

    grid = CylinderGrid()
    psi = psi_nodes(grid)
    profile = exact_sphere_profile(params, psi)
    s = np.linspace(grid.s_min, grid.s_max, grid.n_s)
    values = profile.phi[None, :] * (1.0 + 0.3 * np.sin(s)[:, None] * np.cos(psi)[None, :])
    fake = FowlerField(s_grid=s, psi_grid=psi, values=values, params=params)
    control = derivative_identity_check(energy_trace(fake, (-3.0, 3.0), params))

    passed = mismatch < 0.05 and mismatch_fine <= 0.5 * mismatch and control > 0.5
    return CriterionResult(7, "energy derivative identity", passed, {
        "mismatch_default": mismatch,
        "mismatch_refined": mismatch_fine,
        "negative_control": control,
    })


@_timed
def criterion_8_exponent_suite() -> CriterionResult:
    """Predicate equivalences, inversion involution, and amplitude invariance."""
    rng = np.random.default_rng(SEED)
    N = 100_000
    n = rng.integers(2, 7, size=N).astype(float)
    sigma = rng.uniform(0.05, 0.95, size=N)
    alpha = rng.uniform(-3.0, 3.0, size=N)
    p = rng.uniform(1.01, 6.0, size=N)
    m = n - 2.0 * sigma
    v = (p - 1.0) * m - (4.0 * sigma + alpha)  # as in derive_exponents
    beta = (2.0 * sigma + alpha) / (p - 1.0)

    sides = _biconditionals(n, sigma, alpha, p, v)
    violations = sum(int(np.sum(lhs != rhs)) for _, lhs, rhs in sides)
    violations += int(np.sum((beta > 0.0) != (alpha > -2.0 * sigma)))
    violations += int(np.sum((beta < m) != (p > (n + alpha) / m)))

    # mapped tau is the negative of the source tau
    tau = m / 2.0 - beta
    tau_mapped = m / 2.0 - (2.0 * sigma + v) / (p - 1.0)
    tau_err = float(np.max(np.abs(tau_mapped + tau) / np.maximum(1.0, np.abs(tau))))

    # amplitude invariance and involution on admissible draws
    worst_inv = 0.0
    worst_invol = 0.0
    count = 0
    i = 0
    while count < 100 and i < N:
        t = (int(n[i]), float(sigma[i]), float(alpha[i]), float(p[i]))
        i += 1
        params = validate_params(*t)
        d = derive_exponents(params)
        if not (params.alpha > -2.0 * params.sigma and params.p > d.serrin):
            continue
        count += 1
        worst_inv = max(worst_inv, constant_invariance(params))
        twice = kelvin_exponent(kelvin_exponent(params).mapped)
        worst_invol = max(
            worst_invol, abs(twice.vartheta - params.alpha) / max(1.0, abs(params.alpha))
        )

    passed = (violations == 0 and worst_inv < INVARIANCE_TOL and worst_invol < 1e-12
              and tau_err < 1e-12)
    return CriterionResult(8, "exponent equivalence suite", passed, {
        "violations": violations,
        "amplitude_invariance_worst": worst_inv,
        "involution_worst": worst_invol,
        "tau_negation_worst": tau_err,
        "admissible_draws": count,
    })


@_timed
def criterion_9_barrier() -> CriterionResult:
    """Second-order decay of both barrier residuals under refinement."""
    details = {}
    ok = True
    point = (math.cos(BARRIER_PSI), math.sin(BARRIER_PSI))
    for n, sigma in ((3, 0.5), (3, 0.3)):
        params = validate_params(n, sigma, 0.0, 2.0)
        seq_i, seq_n, ratios_i, ratios_n = _barrier_ladder(
            BARRIER_MU, BARRIER_DELTA, point, params, BARRIER_LEVELS
        )
        details[f"(n={n},sigma={sigma})"] = {
            "interior": seq_i, "neumann": seq_n,
            "interior_ratios": ratios_i, "neumann_ratios": ratios_n,
        }
        ok = ok and all(r >= BARRIER_ORDER for r in ratios_i + ratios_n)
    return CriterionResult(9, "barrier identities", ok, details)


CURATED_POINTS = [
    # (params, expected label, expected tags, expected boundary)
    ((3, 0.5, -1.5, 2.0), "NonexistenceAlphaBelowMinus2Sigma", {"Cor2.1"}, None),
    ((3, 0.5, 0.0, 2.0), "HardySobolevCritical", set(), "hardy_sobolev_critical"),
    ((3, 0.5, 0.0, 1.2), "ExteriorTriviality", {"Thm1.3(1)"}, None),
    ((3, 0.5, 0.0, 1.8), "Subcritical",
     {"Thm1.1", "Thm1.2", "Thm1.3(2)", "Thm1.4", "Cor1.1"}, None),
    ((3, 0.5, 0.0, 1.5), "Subcritical", set(), "serrin_exponent"),
    ((3, 0.5, -0.5, 1.6), "Supercritical",
     {"Thm1.1", "Thm1.2", "Thm1.3(2)", "Thm1.4"}, None),
    ((3, 0.5, -0.5, 1.75), "Supercritical",
     {"Thm1.1", "Thm1.2", "Thm1.3(2)", "Thm1.4"}, "thm11_upper"),
    ((3, 0.5, -0.5, 1.5), "HardySobolevCritical",
     {"Thm1.2", "Thm1.3(2)"}, "hardy_sobolev_critical"),
    ((3, 0.5, 0.0, 2.5), "Supercritical", set(), None),
    ((3, 0.5, 0.5, 2.0), "Subcritical", set(), "sobolev_critical"),
    ((3, 0.5, -1.0, 2.0), "Supercritical", set(), "alpha_equals_minus_2sigma"),
    ((4, 0.75, 0.0, 5.0 / 3.0), "Subcritical",
     {"Thm1.1", "Thm1.2", "Thm1.3(2)", "Thm1.4", "Cor1.1"}, None),
]


@_timed
def criterion_10_classifier_table() -> CriterionResult:
    """Hand-checked verdicts on curated points including every threshold equality."""
    failures = []
    for tup, label, tags, boundary in CURATED_POINTS:
        verdict = classify_regime(validate_params(*tup))
        got = (verdict.label.value, set(verdict.applicable_theorems), verdict.boundary)
        want = (label, tags, boundary)
        if got != want:
            failures.append({"params": tup, "expected": list(map(str, want)), "got": list(map(str, got))})
    return CriterionResult(10, "classifier truth table", not failures,
                           {"cases": len(CURATED_POINTS), "failures": failures})


CRITERIA = [
    criterion_1_lambda_symmetry,
    criterion_2_fall_identity,
    criterion_3_normalizers,
    criterion_4_classical_limit,
    criterion_5_exact_energy,
    criterion_6_monotonicity_signs,
    criterion_7_derivative_identity,
    criterion_8_exponent_suite,
    criterion_9_barrier,
    criterion_10_classifier_table,
]


def run_all(echo=None) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
