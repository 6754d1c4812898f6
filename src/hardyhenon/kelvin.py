"""The Kelvin inversion's map on the weight exponent, and what it preserves.

The inversion u -> |y|^{-(n-2s)} u(y/|y|^2) exchanges the singularities at
the origin and at infinity and replaces the weight exponent alpha by
vartheta = p(n-2s) - (n+2s+alpha).  ``kelvin_exponent`` gives the mapped
quadruple, ``verify_equivalences`` evaluates both sides of each exponent
biconditional that the map induces, and ``constant_invariance`` compares the
singular amplitude C before and after the map.  All three act on the
parameters alone: no trace is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ProblemParams, derive_exponents
from .specialfn import singular_constant

__all__ = [
    "KelvinMap",
    "EquivalenceCheck",
    "kelvin_exponent",
    "verify_equivalences",
    "constant_invariance",
]


@dataclass(frozen=True)
class KelvinMap:
    """Source parameters, the mapped weight exponent, and the mapped quadruple."""

    source: ProblemParams
    vartheta: float
    mapped: ProblemParams


def kelvin_exponent(params: ProblemParams) -> KelvinMap:
    vartheta = derive_exponents(params).vartheta
    mapped = ProblemParams(n=params.n, sigma=params.sigma, alpha=vartheta, p=params.p)
    return KelvinMap(source=params, vartheta=vartheta, mapped=mapped)


@dataclass(frozen=True)
class EquivalenceCheck:
    name: str
    lhs: bool
    rhs: bool

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs


def _biconditionals(n, sigma, alpha, p, v):
    """Name and both sides of each biconditional at weight ``v`` = vartheta.

    Elementwise on numpy arrays, so the suite runs the same predicates on its
    random draws.
    """
    m = n - 2.0 * sigma
    return [
        ("-2s < vartheta <=> serrin < p", -2.0 * sigma < v, (n + alpha) / m < p),
        ("vartheta <= 0 <=> p <= (n+2s+alpha)/(n-2s)",
         v <= 0.0, p <= (n + 2.0 * sigma + alpha) / m),
        ("(n+vartheta)/(n-2s) < p <=> -2s < alpha", (n + v) / m < p, -2.0 * sigma < alpha),
        ("p <= (n+2s+vartheta)/(n-2s) <=> alpha <= 0",
         p <= (n + 2.0 * sigma + v) / m, alpha <= 0.0),
        (
            "p != (n+2s+2 vartheta)/(n-2s) <=> p != p_S(alpha)",
            p != (n + 2.0 * sigma + 2.0 * v) / m,
            p != (n + 2.0 * sigma + 2.0 * alpha) / m,
        ),
        ("p > (n+vartheta)/(n-2s) <=> alpha > -2s", p > (n + v) / m, alpha > -2.0 * sigma),
        (
            "p < (n+2s+2 vartheta)/(n-2s) <=> p > p_S(alpha)",
            p < (n + 2.0 * sigma + 2.0 * v) / m,
            p > (n + 2.0 * sigma + 2.0 * alpha) / m,
        ),
    ]


def verify_equivalences(params: ProblemParams) -> list[EquivalenceCheck]:
    """Evaluate both sides of each exponent biconditional under the inversion.

    Comparisons are exact floating-point predicates: the two sides are
    algebraically identical inequalities, so disagreement would indicate a
    formula error rather than roundoff (ties sit on a measure-zero set).
    """
    v = derive_exponents(params).vartheta
    sides = _biconditionals(params.n, params.sigma, params.alpha, params.p, v)
    return [EquivalenceCheck(name, lhs, rhs) for name, lhs, rhs in sides]


def constant_invariance(params: ProblemParams) -> float:
    """Relative difference of the singular amplitude across the inversion.

    The multiplier is even in its argument and the inversion negates that
    argument, so the difference should sit at roundoff level.
    """
    kmap = kelvin_exponent(params)
    c_src = singular_constant(params)
    c_map = singular_constant(kmap.mapped)
    return abs(c_map - c_src) / c_src
