"""Problem parameters, derived exponents, and the exponent-regime classifier."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "ParamError",
    "ProblemParams",
    "DerivedExponents",
    "RegimeLabel",
    "RegimeVerdict",
    "validate_params",
    "derive_exponents",
    "classify_regime",
]

#: Default tolerance for deciding p == threshold from decimal input.
THRESHOLD_TOL = 1e-12


class ParamError(ValueError):
    """Raised when a parameter quadruple violates the admissibility invariants."""


@dataclass(frozen=True)
class ProblemParams:
    """The quadruple (n, sigma, alpha, p) fixing one Hardy-Henon instance."""

    n: int
    sigma: float
    alpha: float
    p: float

    def __post_init__(self) -> None:
        _check(self.n, self.sigma, self.alpha, self.p)


def _check(n, sigma, alpha, p) -> None:
    if int(n) != n or n < 2:
        raise ParamError(f"dimension below 2 (or non-integer): n={n}")
    if not 0.0 < sigma < 1.0:
        raise ParamError(f"sigma out of range (0,1): sigma={sigma}")
    if not 1.0 < p < float("inf"):
        raise ParamError(f"nonlinearity exponent must exceed 1 and be finite: p={p}")
    if not (alpha == alpha and abs(alpha) != float("inf")):
        raise ParamError(f"alpha must be a finite real: alpha={alpha}")


def validate_params(n: float, sigma: float, alpha: float, p: float) -> ProblemParams:
    """Build ProblemParams from raw numbers, with a distinct diagnostic per violation."""
    _check(n, sigma, alpha, p)
    return ProblemParams(n=int(n), sigma=float(sigma), alpha=float(alpha), p=float(p))


@dataclass(frozen=True)
class DerivedExponents:
    """Every exponent and coefficient computed from a parameter quadruple.

    beta is the singular blow-up rate, serrin the exterior-triviality
    threshold, hardy_sobolev_crit the energy-monotonicity threshold, and
    thm11_upper the largest p covered by the asymptotic-profile result.
    J1 and J2 are the cylinder coefficients, vartheta the inversion-mapped
    weight exponent, tau the multiplier argument of the singular amplitude.
    """

    beta: float
    serrin: float
    sobolev_crit: float
    hardy_sobolev_crit: float
    thm11_upper: float
    J1: float
    J2: float
    vartheta: float
    tau: float


def derive_exponents(params: ProblemParams) -> DerivedExponents:
    n, sigma, alpha, p = params.n, params.sigma, params.alpha, params.p
    m = n - 2.0 * sigma
    beta = (2.0 * sigma + alpha) / (p - 1.0)
    hardy_sobolev = (n + 2.0 * sigma + 2.0 * alpha) / m
    return DerivedExponents(
        beta=beta,
        serrin=(n + alpha) / m,
        sobolev_crit=(n + 2.0 * sigma) / m,
        hardy_sobolev_crit=hardy_sobolev,
        thm11_upper=(n + 2.0 * sigma + alpha) / m,
        J1=m / (p - 1.0) * (hardy_sobolev - p),
        J2=beta * (m - beta),
        # p m - (n + 2s + alpha), grouped so that its rounding is not
        # amplified by the 1/(p-1) in the mapped beta and tau
        vartheta=(p - 1.0) * m - (4.0 * sigma + alpha),
        tau=m / 2.0 - beta,
    )


class RegimeLabel(enum.Enum):
    NONEXISTENCE_ALPHA_BELOW_MINUS_2SIGMA = "NonexistenceAlphaBelowMinus2Sigma"
    EXTERIOR_TRIVIALITY = "ExteriorTriviality"
    SUBCRITICAL = "Subcritical"
    HARDY_SOBOLEV_CRITICAL = "HardySobolevCritical"
    SUPERCRITICAL = "Supercritical"


@dataclass(frozen=True)
class RegimeVerdict:
    """Classification of one parameter quadruple.

    ``applicable_theorems`` holds the tags of the classification results whose
    hypotheses the quadruple satisfies.  ``predicted_rates`` is the pair of
    candidate decay/blow-up exponents (n - 2 sigma, beta).  ``boundary`` names
    the threshold when p sits exactly on one, instead of silently binning the
    case into an open interval.
    """

    label: RegimeLabel
    applicable_theorems: frozenset[str]
    predicted_rates: tuple[float, float]
    boundary: str | None = None
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "label": self.label.value,
            "applicable_theorems": sorted(self.applicable_theorems),
            "predicted_rate_fast_decay": self.predicted_rates[0],
            "predicted_rate_singular": self.predicted_rates[1],
            "boundary": self.boundary,
            "notes": list(self.notes),
        }


def classify_regime(params: ProblemParams, tol: float = THRESHOLD_TOL) -> RegimeVerdict:
    """Decide the exponent regime and the set of applicable classification results.

    Threshold comparisons use an absolute/relative tolerance ``tol`` so the
    measure-zero critical cases are reachable from decimal CLI input.  Every
    valid quadruple receives exactly one label.
    """
    n, sigma, alpha, p = params.n, params.sigma, params.alpha, params.p
    d = derive_exponents(params)
    rates = (n - 2.0 * sigma, d.beta)

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    notes: list[str] = []
    tags: set[str] = set()

    at_minus_2sigma = close(alpha, -2.0 * sigma)
    if alpha < -2.0 * sigma and not at_minus_2sigma:
        return RegimeVerdict(
            label=RegimeLabel.NONEXISTENCE_ALPHA_BELOW_MINUS_2SIGMA,
            applicable_theorems=frozenset({"Cor2.1"}),
            predicted_rates=rates,
            notes=("no positive solution exists in any domain containing the origin",),
        )

    boundary: str | None = None
    if at_minus_2sigma:
        boundary = "alpha_equals_minus_2sigma"
        notes.append("alpha = -2*sigma exactly: outside the covered range, no result applies")
    if close(alpha, 2.0 * sigma):
        notes.append("alpha = 2*sigma exactly: outside the covered range of the interior results")

    at_serrin = close(p, d.serrin)
    at_hs = close(p, d.hardy_sobolev_crit)
    at_sobolev = close(p, d.sobolev_crit)
    at_thm11 = close(p, d.thm11_upper)

    if at_hs:
        label = RegimeLabel.HARDY_SOBOLEV_CRITICAL
        boundary = boundary or "hardy_sobolev_critical"
    elif at_serrin:
        label = RegimeLabel.SUBCRITICAL
        boundary = boundary or "serrin_exponent"
    elif p < d.serrin:
        label = RegimeLabel.EXTERIOR_TRIVIALITY
    elif p < d.hardy_sobolev_crit:
        label = RegimeLabel.SUBCRITICAL
    else:
        label = RegimeLabel.SUPERCRITICAL
    if at_sobolev and boundary is None:
        boundary = "sobolev_critical"
    if at_thm11 and boundary is None:
        boundary = "thm11_upper"

    alpha_above = alpha > -2.0 * sigma and not at_minus_2sigma
    below_sobolev = p < d.sobolev_crit and not at_sobolev
    above_serrin = p > d.serrin and not at_serrin
    below_serrin = p < d.serrin and not at_serrin
    below_thm11 = p < d.thm11_upper or close(p, d.thm11_upper)

    if alpha_above and -2.0 * sigma < alpha <= 0.0 and above_serrin and below_thm11 and not at_hs:
        tags.add("Thm1.1")
        tags.add("Thm1.4")
    if alpha_above and alpha < 2.0 * sigma and not close(alpha, 2.0 * sigma):
        if above_serrin and below_sobolev:
            tags.add("Thm1.2")
    if alpha_above and below_serrin and below_sobolev:
        tags.add("Thm1.3(1)")
    if alpha_above and above_serrin and below_sobolev:
        tags.add("Thm1.3(2)")
    if alpha == 0.0 and above_serrin and below_sobolev:
        tags.add("Cor1.1")

    if p > d.sobolev_crit and not at_sobolev:
        notes.append(
            "p above the Sobolev-critical exponent: constants remain evaluable "
            "but none of the classification results apply"
        )

    return RegimeVerdict(
        label=label,
        applicable_theorems=frozenset(tags),
        predicted_rates=rates,
        boundary=boundary,
        notes=tuple(notes),
    )
