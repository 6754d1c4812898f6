"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operation specs, prepares
the program inputs for them (the part timed as set-up), and checks each
output against ``reference`` values or against a property the method must
have.  Operation calls look their targets up through the module at call
time, so the traced run's wrappers see every call.

Named faulty operations (``Spec.faulty``) have inputs that do not depend on
the seed and fail on every run because of a known fault in the program; they
are counted as failed, never dropped.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hardyhenon import cylinder, energy, extension, fraclap, params, specialfn

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"


@dataclass(frozen=True)
class Spec:
    label: str
    args: tuple
    faulty: bool = False


def _rel(got, want) -> float:
    return float(abs(got - want) / abs(want))


def _quad(n, sigma, alpha, p) -> str:
    return f"n={n} sigma={sigma!r} alpha={alpha!r} p={p!r}"


class PvSweep:
    """frac_laplacian_radial on r^{-beta}; one operation is one radius."""

    TOL = 1e-6  # accuracy the README states for the PV quadrature
    RADII = (0.5, 1.0, 2.0)
    # p = Serrin + u (Sobolev + 1 - Serrin), one u drawn from each stratum
    STRATA = ((0.10, 0.35), (0.375, 0.625), (0.65, 0.90))

    def specs(self, seed: int) -> list[Spec]:
        rng = np.random.default_rng(seed)
        out = []
        for n in (2, 3, 4, 6, 10):
            for sigma in (0.05, 0.2, 0.5):
                for alpha in (-1.8 * sigma, 0.0, 1.8 * sigma):
                    m = n - 2.0 * sigma
                    serrin, top = (n + alpha) / m, (n + 2.0 * sigma) / m + 1.0
                    for lo, hi in self.STRATA:
                        p = serrin + float(rng.uniform(lo, hi)) * (top - serrin)
                        out += [Spec(f"{_quad(n, sigma, alpha, p)} r={r}", (n, sigma, alpha, p, r))
                                for r in self.RADII]
        # pair cancellation in the symmetric zone as sigma -> 1 (ROADMAP item 4)
        for n in (2, 3, 10):
            m = n - 1.9
            p = 0.5 * ((n / m) + (n + 1.9) / m + 1.0)
            out.append(Spec(f"{_quad(n, 0.95, 0.0, p)} r=1.0", (n, 0.95, 0.0, p, 1.0), faulty=True))
        return out

    def prepare(self, spec: Spec) -> Callable[[], float]:
        n, sigma, alpha, p, r = spec.args
        prm = params.validate_params(n, sigma, alpha, p)
        profile = fraclap.power_profile((2.0 * sigma + alpha) / (p - 1.0))
        return lambda: fraclap.frac_laplacian_radial(profile, r, prm)

    def reference(self, spec: Spec):
        from reference import fall_target

        return fall_target(*spec.args)

    def check(self, spec: Spec, ref, value) -> str | None:
        err = _rel(value, ref)
        return None if err <= self.TOL else f"relative error {err:.3e} > {self.TOL:g}"


class ExtensionFlux:
    """Sphere profile with its ODE residuals, and the Neumann flux at three radii."""

    TOL = 1e-4  # bound of the program's own flux and boundary-value tests
    RADII = (0.5, 1.0, 2.0)

    def specs(self, seed: int) -> list[Spec]:
        out = []
        for n in (2, 3, 5):
            for sigma in (0.25, 0.5, 0.75):
                for alpha in (-sigma, 0.0, sigma):
                    m = n - 2.0 * sigma
                    # fixed midpoint of (Serrin, Sobolev): the flux error moves
                    # non-smoothly with p (1.55e-4 at u = 0.25 for n=2, sigma=alpha=0.75)
                    p = 0.5 * ((n + alpha) / m + (n + 2.0 * sigma) / m)
                    quad = _quad(n, sigma, alpha, p)
                    out.append(Spec(f"profile {quad}", ("profile", n, sigma, alpha, p)))
                    out += [Spec(f"flux {quad} r={r}", ("flux", n, sigma, alpha, p, r))
                            for r in self.RADII]
        order = np.random.default_rng(seed).permutation(len(out))
        return [out[i] for i in order]

    def prepare(self, spec: Spec) -> Callable[[], object]:
        kind, n, sigma, alpha, p = spec.args[:5]
        prm = params.validate_params(n, sigma, alpha, p)
        if kind == "profile":
            psi = cylinder.psi_nodes(cylinder.CylinderGrid())

            def profile_op():
                profile = extension.exact_sphere_profile(prm, psi)
                return profile, extension.verify_sphere_ode(profile, prm)

            return profile_op
        r = spec.args[5]
        trace = fraclap.power_profile((2.0 * sigma + alpha) / (p - 1.0), specialfn.singular_constant(prm))
        return lambda: extension.neumann_flux(trace, r, prm)

    def reference(self, spec: Spec):
        from reference import amplitude, flux_target

        if spec.args[0] == "profile":
            return amplitude(*spec.args[1:])
        return flux_target(*spec.args[1:])

    def check(self, spec: Spec, ref, out) -> str | None:
        if spec.args[0] == "profile":
            profile, residuals = out
            if not (np.all(np.isfinite(profile.phi)) and np.all(profile.phi > 0.0)):
                return "profile is not finite and positive"
            if not (math.isfinite(residuals.interior_max) and math.isfinite(residuals.boundary_rel)):
                return "sphere ODE residuals are not finite"
            err = _rel(profile.boundary_value, ref)
            return None if err <= self.TOL else f"boundary value error {err:.3e} > {self.TOL:g}"
        err = _rel(out.value, ref)
        return None if err <= self.TOL else f"flux error {err:.3e} > {self.TOL:g}"


class CylinderEnergy:
    """End-perturbed cylinder solve from the exact profile, then the energy trace."""

    IDENTITY_TOL = 0.05  # criterion 7
    SIGN_BUDGET = 1e-6  # times max|E|; monotonicity_verdict's default budget
    # flatness of E when J1 = 0: the energy command's --tol-drift on the default
    # grid, criterion 6's gate on the refined grid
    FLAT_TOL = {False: 1e-4, True: 1e-6}
    CASES = (
        # tag, (n, sigma, alpha, p), eps, refined grid, energy window, faulty
        ("subcritical", (3, 0.5, 0.0, 1.8), 0.05, False, (-3.5, 3.5), False),
        ("supercritical", (3, 0.5, -0.5, 1.6), 0.05, False, (-3.5, 3.5), False),
        ("critical", (3, 0.5, 0.0, 2.0), 0.005, False, (-3.0, 3.0), False),
        ("critical", (3, 0.5, 0.0, 2.0), 0.005, True, (-3.0, 3.0), False),
        # Cor 1.1 subcritical point whose solved field breaks the identity
        ("cor11", (4, 0.75, 0.0, 5.0 / 3.0), 0.05, False, (-3.5, 3.5), True),
    )

    def specs(self, seed: int) -> list[Spec]:
        return [Spec(f"{tag} {_quad(*quad)} eps={eps} grid={'refined' if refined else 'default'}",
                     (quad, eps, refined, window), faulty)
                for tag, quad, eps, refined, window, faulty in self.CASES]

    def prepare(self, spec: Spec) -> Callable[[], object]:
        quad, eps, refined, window = spec.args
        prm = params.validate_params(*quad)
        grid = cylinder.CylinderGrid().refined() if refined else cylinder.CylinderGrid()
        psi = cylinder.psi_nodes(grid)

        def op():
            phi = extension.exact_sphere_profile(prm, psi).phi
            solved = cylinder.solve_cylinder_pde(
                prm, (1.0 + eps) * phi, phi, grid, initial=np.tile(phi, (grid.n_s, 1))
            )
            return energy.energy_trace(solved.field, window, prm)

        return op

    def reference(self, spec: Spec) -> int:
        from reference import exponents

        j1 = exponents(*spec.args[0])["J1"]
        return 0 if j1 == 0 else (1 if j1 > 0 else -1)

    def check(self, spec: Spec, sign, tr) -> str | None:
        scale = float(np.max(np.abs(tr.E)))
        if sign == 0:
            tol = self.FLAT_TOL[spec.args[2]]
            drift = float(np.ptp(tr.E)) / scale
            slope = float(np.max(np.abs(tr.dE_fd))) / scale
            if drift > tol or slope > tol:
                return f"E not flat at J1 = 0: drift {drift:.3e}, max|dE/ds|/max|E| {slope:.3e} > {tol:g}"
            return None
        problems = []
        if np.sign(tr.J1) != sign:
            problems.append(f"J1 = {tr.J1:.6g} has the wrong sign")
        fd_min = float(np.min(sign * tr.dE_fd))
        if fd_min < -self.SIGN_BUDGET * scale or np.any(sign * tr.dE_formula < 0.0):
            problems.append(f"slope against sign(J1): min sign*dE/ds = {fd_min:.3e}")
        mismatch = identity_mismatch(tr, (-3.0, -2.0))
        if mismatch >= self.IDENTITY_TOL:
            problems.append(f"dE/ds identity mismatch {mismatch:.3f} >= {self.IDENTITY_TOL}")
        return "; ".join(problems) or None


def identity_mismatch(tr, window) -> float:
    """Max relative gap between the fd slope of E and J1 * weighted int V_s^2 inside window.

    Interior points of the trace carry central differences, so a slice drops
    only its two edge points, as a trace over the window alone would.
    """
    keep = (tr.s_values >= window[0] - 1e-12) & (tr.s_values <= window[1] + 1e-12)
    fd, formula = tr.dE_fd[keep][1:-1], tr.dE_formula[keep][1:-1]
    floor = 1e-10 * max(float(np.max(np.abs(tr.E[keep]))), 1e-30)
    return float(np.max(np.abs(fd - formula) / (np.abs(formula) + floor)))


class CliReports:
    """In-process ``hardyhenon.cli.run`` over five light subcommands."""

    DRAWS = 40
    FLOAT_TOL = 1e-10  # reports carry 12 significant digits
    BARRIER_ORDER = 3.2  # the barrier command's --tol-order default

    def __init__(self):
        self._validator = None

    def specs(self, seed: int) -> list[Spec]:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.DRAWS):
            # classify: the whole valid region, every label, off the thresholds
            while True:
                quad = (int(rng.integers(2, 7)), float(rng.uniform(0.05, 0.95)),
                        float(rng.uniform(-3.0, 3.0)), float(rng.uniform(1.05, 6.0)))
                if _threshold_gap(*quad) > 1e-6:
                    break
            out.append(Spec(f"classify {_quad(*quad)}", ("classify", quad)))
            # constants, kelvin, verify-lemma: the admissible region, p - 1 >= 0.25
            # (see the benchmark README)
            while True:
                n, sigma = int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.6))
                alpha = 2.0 * sigma * float(rng.uniform(-0.8, 0.8))
                m = n - 2.0 * sigma
                serrin, sobolev = (n + alpha) / m, (n + 2.0 * sigma) / m
                quad = (n, sigma, alpha, serrin + float(rng.uniform(0.1, 0.9)) * (sobolev - serrin))
                if quad[3] >= 1.25:
                    break
            for cmd in ("constants", "kelvin", "verify-lemma"):
                out.append(Spec(f"{cmd} {_quad(*quad)}", (cmd, quad)))
            # barrier at its default mu, delta; sigma in [0.476, 0.496] is left
            # out (see the benchmark README)
            n, sigma = int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.45))
            out.append(Spec(f"barrier n={n} sigma={sigma!r}", ("barrier", (n, sigma))))
        return out

    def prepare(self, spec: Spec) -> Callable[[], tuple[int, str, str]]:
        cli = importlib.import_module("hardyhenon.cli")
        cmd, quad = spec.args
        # "--alpha=-8.8e-05": argparse takes a separate "-8.8e-05" for an option
        argv = [cmd, f"--n={quad[0]}", f"--sigma={quad[1]!r}"]
        if cmd != "barrier":
            argv += [f"--alpha={quad[2]!r}", f"--p={quad[3]!r}"]
        if cmd == "verify-lemma":
            argv += ["--radii=1"]

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:  # argparse exits on usage errors
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return op

    def reference(self, spec: Spec) -> dict:
        import jsonschema

        import reference as ref

        if self._validator is None:
            schema = json.loads(SCHEMA_PATH.read_text())
            self._validator = jsonschema.validators.validator_for(schema)(schema)
        cmd, quad = spec.args
        if cmd == "barrier":
            return {}
        n, sigma, alpha, p = quad
        d = ref.exponents(*quad)
        want = {"vartheta": d["vartheta"], "label": ref.regime_label(*quad)}
        if cmd == "constants":
            want.update(
                kappa_sigma=ref.kappa(sigma),
                c_n_sigma=ref.hypersingular_normalizer(n, sigma),
                p_n_sigma=ref.poisson_normalizer(n, sigma),
                tau=d["tau"],
                lambda_tau=ref.multiplier(d["tau"], n, sigma),
                C_p_sigma_alpha=ref.amplitude(*quad),
                C0_classical=ref.classical_amplitude(n, alpha, p),
            )
        return want

    def check(self, spec: Spec, want: dict, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        report = json.loads(stdout)
        problems = [e.message for e in self._validator.iter_errors(report)]
        res = report["results"]
        cmd = spec.args[0]

        def near(key, got, expect):
            if expect is None or got is None:
                if (expect is None) != (got is None):
                    problems.append(f"{key}: got {got}, want {expect}")
            elif abs(got - expect) > self.FLOAT_TOL * max(1.0, abs(expect)):
                problems.append(f"{key}: got {got!r}, want {float(expect)!r}")

        if cmd == "classify":
            if res["label"] != want["label"] or res["boundary"] is not None:
                problems.append(f"label {res['label']} boundary {res['boundary']}, want {want['label']}")
            near("vartheta", res["derived"]["vartheta"], want["vartheta"])
        elif cmd == "constants":
            for key in ("kappa_sigma", "c_n_sigma", "p_n_sigma", "tau", "lambda_tau",
                        "C_p_sigma_alpha", "C0_classical"):
                near(key, res[key], want[key])
        elif cmd == "kelvin":
            near("vartheta", res["vartheta"], want["vartheta"])
            near("mapped alpha", res["mapped_params"]["alpha"], want["vartheta"])
            if not all(e["agree"] for e in res["equivalences"]):
                problems.append("an exponent equivalence disagrees")
        elif cmd == "verify-lemma":
            if not res["max_rel_error"] < PvSweep.TOL:
                problems.append(f"fall identity error {res['max_rel_error']:.3e}")
        elif cmd == "barrier":
            ratios = res["interior_ratios"] + res["neumann_ratios"]
            if min(ratios) < self.BARRIER_ORDER:
                problems.append(f"residual decay ratios {ratios} below {self.BARRIER_ORDER}")
        return "; ".join(problems) or None


def _threshold_gap(n, sigma, alpha, p) -> float:
    """Smallest relative distance of (alpha, p) to a threshold the classifier tests."""
    m = n - 2.0 * sigma
    thresholds = ((n + alpha) / m, (n + 2.0 * sigma) / m, (n + 2.0 * sigma + 2.0 * alpha) / m,
                  (n + 2.0 * sigma + alpha) / m)
    gaps = [abs(p - t) / max(1.0, abs(t)) for t in thresholds]
    return min(gaps + [abs(alpha + 2.0 * sigma) / max(1.0, 2.0 * sigma)])


WORKLOADS = {
    "pv_sweep": PvSweep(),
    "extension_flux": ExtensionFlux(),
    "cylinder_energy": CylinderEnergy(),
    "cli_reports": CliReports(),
}
