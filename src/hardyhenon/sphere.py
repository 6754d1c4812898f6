"""The psi discretization of the degenerate profile equation on S^n_+: the
local power fit, the three-point stencil, the psi = 0 edge model
V = V0 + c sin^{2 sigma} psi + e sin^2 psi, the cylinder solver's psi
operator and the energy's weighted psi quadrature, on grids from psi = 0
to the pole.

The discretization depends on the psi grid, n and sigma only: alpha and p
enter the solver, the sphere-ODE check and the energy through J1, J2 and the
boundary power, which act on what the operator and the weights return, not
on how they are built.  So ``psi_rule`` builds the stencil, the edge model,
the operator and the quadrature's psi-only factors once per (bytes of the
psi grid, n, sigma) and caches them, least recently used first out; every
caller shares the same read-only arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .quadrature import gauss_legendre


def power_fit(x: np.ndarray, exponents) -> np.ndarray:
    """Weights W for which W @ f(x) are the coefficients a_j of f ~ sum_j a_j x^{e_j}.

    ``x`` holds the k sample abscissae on its last axis, and leading axes
    batch independent fits; W has shape (..., len(exponents), k).  The fit
    interpolates when k equals the number of exponents and is least squares
    when k is larger.  The columns x^{e_j} are not rescaled.
    """
    M = np.asarray(x, dtype=float)[..., None] ** np.asarray(exponents, dtype=float)
    return np.linalg.inv(M) if M.shape[-2] == M.shape[-1] else np.linalg.pinv(M)


def derivative_weights(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of d/dpsi and d^2/dpsi^2 at the interior nodes of a nonuniform grid.

    Each is a (len(psi) - 2, 3) array acting on (f[j-1], f[j], f[j+1]); both
    are exact on 1, psi and psi^2.
    """
    W = power_fit(np.stack([psi[:-2], psi[1:-1], psi[2:]], axis=1) - psi[1:-1, None], (0, 1, 2))
    return W[:, 1], 2.0 * W[:, 2]


def edge_model(psi: np.ndarray, sigma: float) -> np.ndarray:
    """The 2x3 matrix taking (V0, V1, V2) on psi[:3], psi[0] = 0, to (c, e).

    (c, e) are the coefficients of the local model
    V = V0 + c sin^{2 sigma} psi + e sin^2 psi through the three samples.
    """
    W = power_fit(np.sin(psi[1:3]), (2.0 * sigma, 2.0))  # acts on (V1 - V0, V2 - V0)
    return np.column_stack([-W.sum(axis=1), W])


def cell_weights(psi: np.ndarray, n: int, sigma: float, start_cell: int = 0) -> np.ndarray:
    """Nodal weights for int f(psi) sin^{1-2s} psi cos^{n-1} psi d psi.

    The integral runs over [psi[start_cell], pi/2].  Each cell integrates the
    weight against the cubic Lagrange interpolant of f on the four nearest
    nodes.  A leading cell starting at psi = 0 uses the power substitution
    psi = psi_1 v^{1/(2-2s)} so the degenerate weight is resolved exactly.
    """
    xg, wg = gauss_legendre(12)
    x01 = (xg + 1.0) / 2.0
    w01 = wg / 2.0
    nn = len(psi)
    c = np.arange(start_cell, nn - 1)
    c = c[psi[c + 1] > psi[c]]
    lo, hi = psi[c, None], psi[c + 1, None]
    # (cells, 12) Gauss nodes and Jacobians; cells at psi = 0 are power-substituted
    pp = lo + (hi - lo) * x01
    jac = np.broadcast_to(hi - lo, pp.shape).copy()
    first = lo[:, 0] == 0.0
    e = 1.0 / (2.0 - 2.0 * sigma)
    pp[first] = hi[first] * x01 ** e
    jac[first] = hi[first] * e * x01 ** (e - 1.0)
    cellw = w01 * jac * (np.sin(pp) ** (1.0 - 2.0 * sigma) * np.cos(pp) ** (n - 1))
    stencil = np.minimum(np.maximum(c - 1, 0), nn - 4)[:, None] + np.arange(4)
    nodes = psi[stencil]
    parts = []
    # positions in reverse, so each node collects its cells in ascending order
    for k in range(3, -1, -1):
        lag = np.ones_like(pp)
        for l in range(4):
            if l != k:
                lag *= (pp - nodes[:, l, None]) / (nodes[:, k, None] - nodes[:, l, None])
        parts.append(np.sum(cellw * lag, axis=1))
    return np.bincount(stencil[:, ::-1].T.ravel(), np.concatenate(parts), minlength=nn)


class PsiRule(NamedTuple):
    """The psi discretization on one grid at one (n, sigma); every array is read-only."""

    psi: np.ndarray  # the grid, psi[0] = 0
    d1: np.ndarray  # d/dpsi at the interior nodes (``derivative_weights``)
    d2: np.ndarray  # d^2/dpsi^2 at the interior nodes
    edge: np.ndarray  # (V0, V1, V2) -> (c, e) of the edge model
    L: np.ndarray  # the psi operator
    w0: np.ndarray  # ``cell_weights`` over [0, pi/2]
    w2: np.ndarray  # ``cell_weights`` over [psi[2], pi/2]
    # gradient_integral's 16 nodes on [0, psi[2]], by rows: Gauss weight times
    # Jacobian, sin, cos, sin^{2 sigma - 1} and the weight sin^{1-2s} cos^{n-1}
    edge_quad: np.ndarray


#: The fewest nodes a psi grid may have: ``cell_weights`` interpolates on four.
_MIN_PSI_NODES = 4


def psi_rule(psi: np.ndarray, n: int, sigma: float) -> PsiRule:
    """The cached ``PsiRule`` of a grid from psi = 0 to the pole.

    It is keyed on the grid's bytes, n and sigma, so a caller may change its
    own psi array afterwards.  ValueError is raised unless the grid is 1-D with
    at least _MIN_PSI_NODES nodes from psi = 0 (for the edge model and the flux
    row) and, checked only when the rule is built so warm calls pay nothing,
    finite and strictly increasing (stencil).
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim == 1 and len(psi) < _MIN_PSI_NODES:
        raise ValueError(f"the psi grid needs at least {_MIN_PSI_NODES} nodes, got {len(psi)}")
    if psi.ndim != 1 or psi[0] != 0.0:
        raise ValueError(f"the psi grid must be 1-D from psi = 0, got {psi.shape} from {psi.ravel()[:1]}")
    return _psi_rule(psi.tobytes(), n, sigma)


@lru_cache(maxsize=16)
def _psi_rule(key: bytes, n: int, sigma: float) -> PsiRule:
    """``PsiRule`` of the grid whose float64 bytes are ``key``.

    The operator L: row 0 is the linear part 2 sigma c of the weighted flux
    (c from the edge model); interior rows are the three-point stencil of
    V'' + ((1-2s) cot psi - (n-1) tan psi) V'; the last row is n V_chichi at
    the pole with even reflection across psi = pi/2.
    """
    psi = np.frombuffer(key)
    if not (np.all(np.isfinite(psi)) and np.all(np.diff(psi) > 0.0)):
        raise ValueError("the psi grid must be finite and strictly increasing")
    npsi = len(psi)
    d1, d2 = derivative_weights(psi)
    edge = edge_model(psi, sigma)
    L = np.zeros((npsi, npsi))
    L[0, :3] = 2.0 * sigma * edge[0]
    tan = np.array([math.tan(x) for x in psi[1:-1]])  # libm; numpy's tan may differ by an ulp
    P = (1.0 - 2.0 * sigma) / tan - (n - 1) * tan
    j = np.arange(1, npsi - 1)[:, None]
    L[j, j + np.arange(-1, 2)] = d2 + P[:, None] * d1
    chi = math.pi / 2.0 - psi[-2]
    L[-1, -2:] = [2.0 * n / chi ** 2, -2.0 * n / chi ** 2]

    cut = psi[2]
    xg, wg = gauss_legendre(16)
    v = (xg + 1.0) / 2.0
    ex = 1.0 / (2.0 * sigma)
    pp = cut * v ** ex
    jac = cut * ex * v ** (ex - 1.0)
    sin, cos = np.sin(pp), np.cos(pp)
    edge_quad = np.stack([wg / 2.0 * jac, sin, cos, sin ** (2.0 * sigma - 1.0),
                          sin ** (1.0 - 2.0 * sigma) * cos ** (n - 1)])

    rule = PsiRule(psi, d1, d2, edge, L, cell_weights(psi, n, sigma),
                   cell_weights(psi, n, sigma, start_cell=2), edge_quad)
    for a in rule:
        a.flags.writeable = False
    return rule


def psi_operator(psi: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """The cached, read-only psi operator L of ``psi_rule`` on a grid from psi = 0 to the pole."""
    return psi_rule(psi, n, sigma).L


def psi_derivative(values: np.ndarray, rule: PsiRule) -> np.ndarray:
    """Second-order d/dpsi along the last axis on the rule's grid; one-sided at both ends."""
    psi, w = rule.psi, rule.d1
    out = np.empty_like(values)
    out[..., 1:-1] = w[:, 0] * values[..., :-2] + w[:, 1] * values[..., 1:-1] + w[:, 2] * values[..., 2:]
    out[..., 0] = (values[..., 1] - values[..., 0]) / (psi[1] - psi[0])
    out[..., -1] = (values[..., -1] - values[..., -2]) / (psi[-1] - psi[-2])
    return out


def gradient_integral(values: np.ndarray, psi: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Weighted integral of (dV/dpsi)^2 for each row of an (..., n_psi) array.

    Near psi = 0 the field carries a sin^{2 sigma} component whose derivative
    is not resolvable by difference quotients, so the contribution of
    [0, psi_2] is integrated from the local model
    V = V0 + c sin^{2s} psi + e sin^2 psi through the first three nodes;
    a psi grid that does not start at psi = 0 raises ValueError (``psi_rule``).
    """
    rule = psi_rule(psi, n, sigma)
    f = psi_derivative(values, rule) ** 2
    total = np.sum(rule.w2 * f, axis=-1)
    ce = values[..., :3] @ rule.edge.T
    c, e = ce[..., 0, None], ce[..., 1, None]
    q, sin, cos, sin_pow, wfun = rule.edge_quad
    dv_model = 2.0 * sigma * c * sin_pow * cos + 2.0 * e * sin * cos
    return total + np.sum(q * dv_model ** 2 * wfun, axis=-1)
