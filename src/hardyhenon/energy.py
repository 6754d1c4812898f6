"""Monotonicity energy of extension fields, in cylinder and half-sphere form.

The cylinder energy at axial position s combines three weighted angular
integrals of (V, V_s, V_psi) with a boundary power term; its s-derivative
equals J1 times the weighted integral of V_s^2 on solutions, which is what
the trace and verdict helpers check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .extension import ExtensionField, FowlerField, fowler_map
from .params import ProblemParams, derive_exponents
from .specialfn import kappa_sigma, unit_sphere_area
from .sphere import gradient_integral, psi_rule

__all__ = [
    "EnergyTrace",
    "MonotonicityVerdict",
    "energy_halfsphere",
    "energy_trace",
    "derivative_identity_check",
    "monotonicity_verdict",
]


def _axial_derivative(values: np.ndarray, ds: float) -> np.ndarray:
    """Fourth-order interior / second-order edge d/ds along axis 0."""
    out = np.empty_like(values)
    out[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * ds)
    out[0] = (values[1] - values[0]) / ds
    out[1] = (values[2] - values[0]) / (2.0 * ds)
    out[-2] = (values[-1] - values[-3]) / (2.0 * ds)
    out[-1] = (values[-1] - values[-2]) / ds
    return out


def _locate(grid: np.ndarray, value: float, margin: int) -> int:
    i = int(np.argmin(np.abs(grid - value)))
    if abs(grid[i] - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"value {value} is not a grid node")
    if i < margin or i >= len(grid) - margin:
        raise ValueError(f"value {value} is too close to the grid edge")
    return i


def _energy_cylinder_rows(field: FowlerField, params: ProblemParams):
    """Energy and formula-side derivative at every s node (edges second order)."""
    n, sigma, p = params.n, params.sigma, params.p
    d = derive_exponents(params)
    psi = field.psi_grid
    area = unit_sphere_area(n)
    kap = kappa_sigma(sigma)
    w = psi_rule(psi, n, sigma).w0
    V = field.values
    kinetic = np.sum(w * _axial_derivative(V, field.s_grid[1] - field.s_grid[0]) ** 2, axis=1)
    mass = np.sum(w * V ** 2, axis=1)
    grad = gradient_integral(V, psi, n, sigma)
    E = area * (
        0.5 * kinetic - 0.5 * d.J2 * mass - 0.5 * grad + kap / (p + 1.0) * V[:, 0] ** (p + 1.0)
    )
    dE_formula = d.J1 * area * kinetic
    return E, dE_formula


def energy_halfsphere(field: ExtensionField, r: float, params: ProblemParams) -> float:
    """Five-term weighted surface energy on the half-sphere of radius r.

    Computed literally from the field samples (radial derivative by axial
    differences in log r); agrees with the cylinder form at s = ln r up to
    quadrature tolerance.
    """
    n, sigma, alpha, p = params.n, params.sigma, params.alpha, params.p
    d = derive_exponents(params)
    beta = d.beta
    i = _locate(field.r_grid, r, margin=2)
    psi = field.psi_grid
    area = unit_sphere_area(n)
    kap = kappa_sigma(sigma)
    w = psi_rule(psi, n, sigma).w0

    ds = math.log(field.r_grid[1]) - math.log(field.r_grid[0])
    Us = _axial_derivative(field.values, ds)
    U = field.values[i]
    Ur = Us[i] / r

    wexp = (2.0 * (p + 1.0) * sigma + 2.0 * alpha) / (p - 1.0)
    surf = r ** (n + 1.0 - 2.0 * sigma) * area  # measure factor of t^{1-2s} integrals

    I_urur = surf * float(np.sum(w * Ur ** 2))
    I_uru = surf * float(np.sum(w * Ur * U))
    I_uu = surf * float(np.sum(w * U ** 2))
    grad_ang = gradient_integral(U, psi, n, sigma) / r ** 2
    I_grad = surf * (float(np.sum(w * Ur ** 2)) + grad_ang)
    boundary = r ** (n - 1.0) * area * U[0] ** (p + 1.0)

    return (
        r ** (wexp - n) * (r * I_urur + beta * I_uru)
        + beta * (beta - (n - 2.0 * sigma) / 2.0) * r ** (wexp - n - 1.0) * I_uu
        - 0.5 * r ** (wexp - n + 1.0) * I_grad
        + kap / (p + 1.0) * r ** ((2.0 * sigma + alpha) * (p + 1.0) / (p - 1.0) - n + 1.0) * boundary
    )


@dataclass(frozen=True)
class EnergyTrace:
    """Energy along the axis with both sides of the derivative identity."""

    s_values: np.ndarray
    E: np.ndarray
    dE_formula: np.ndarray
    dE_fd: np.ndarray
    J1: float


def energy_trace(
    field: FowlerField | ExtensionField,
    s_window: tuple[float, float] | None = None,
    params: ProblemParams | None = None,
) -> EnergyTrace:
    """Energy, formula derivative, and finite-difference derivative over a window."""
    if isinstance(field, ExtensionField):
        field = fowler_map(field)
    if params is None:
        params = field.params
    J1 = derive_exponents(params).J1
    E_all, dF_all = _energy_cylinder_rows(field, params)
    s = field.s_grid
    lo = 2
    hi = len(s) - 2
    if s_window is not None:
        lo = max(lo, int(np.searchsorted(s, s_window[0])))
        hi = min(hi, int(np.searchsorted(s, s_window[1], side="right")))
    if hi - lo < 3:
        raise ValueError("window leaves fewer than three interior samples")
    sw = s[lo:hi]
    Ew = E_all[lo:hi]
    dFw = dF_all[lo:hi]
    ds = s[1] - s[0]
    dE_fd = np.gradient(Ew, ds, edge_order=2)
    return EnergyTrace(s_values=sw, E=Ew, dE_formula=dFw, dE_fd=dE_fd, J1=J1)


def derivative_identity_check(trace: EnergyTrace) -> float:
    """Max relative mismatch between the two derivative evaluations.

    The floor in the denominator keeps the exact solution (both sides near
    zero) from reporting spurious mismatch.
    """
    floor = 1e-10 * max(float(np.max(np.abs(trace.E))), 1e-30)
    inner = slice(1, -1)
    num = np.abs(trace.dE_fd[inner] - trace.dE_formula[inner])
    den = np.abs(trace.dE_formula[inner]) + floor
    return float(np.max(num / den))


class MonotonicityVerdict(enum.Enum):
    NON_DECREASING = "NonDecreasing"
    NON_INCREASING = "NonIncreasing"
    CONSTANT = "Constant"
    VIOLATED = "Violated"


def monotonicity_verdict(trace: EnergyTrace, budget: float | None = None) -> MonotonicityVerdict:
    """Compare the finite-difference energy slope against the sign of J1.

    ``budget`` is the combined solver-plus-quadrature error allowance;
    Violated is returned only when the slope opposes sign(J1) beyond it.
    """
    scale = max(float(np.max(np.abs(trace.E))), 1e-30)
    if budget is None:
        budget = 1e-6 * scale
    dmin = float(np.min(trace.dE_fd))
    dmax = float(np.max(trace.dE_fd))
    if abs(trace.J1) < 1e-14:
        if max(abs(dmin), abs(dmax)) <= budget:
            return MonotonicityVerdict.CONSTANT
        return MonotonicityVerdict.VIOLATED
    if trace.J1 > 0.0:
        if dmin < -budget:
            return MonotonicityVerdict.VIOLATED
        if dmax <= budget:
            return MonotonicityVerdict.CONSTANT
        return MonotonicityVerdict.NON_DECREASING
    if dmax > budget:
        return MonotonicityVerdict.VIOLATED
    if dmin >= -budget:
        return MonotonicityVerdict.CONSTANT
    return MonotonicityVerdict.NON_INCREASING
