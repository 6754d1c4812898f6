"""Closed-form constants of the fractional Hardy-Henon problem.

Everything here is a log-space expression in the C library's Gamma:
the power-law multiplier ``lambda_multiplier``, the singular-solution
amplitude ``singular_constant``, the extension flux constant
``kappa_sigma``, the Poisson and hypersingular kernel normalizers, and
the classical second-order limit constant.  ``kappa_sigma``, the two
normalizers and ``unit_sphere_area`` depend on n and sigma only and are
memoized, so the quadratures' repeated calls do no log-Gamma work.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .params import ProblemParams, derive_exponents

__all__ = [
    "SignedLogValue",
    "LambdaResult",
    "log_gamma_signed",
    "lambda_multiplier",
    "lambda_multiplier_detailed",
    "singular_constant",
    "kappa_sigma",
    "poisson_normalizer",
    "hypersingular_normalizer",
    "classical_limit_constant",
    "unit_sphere_area",
]


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (log of absolute value, sign).

    Poles carry ``log_abs = +inf`` and ``pole = True``; they must never be
    silently reconstructed into a finite float.
    """

    log_abs: float
    sign: int
    pole: bool = False

    def value(self) -> float:
        if self.pole:
            return math.inf
        return self.sign * math.exp(self.log_abs)


def log_gamma_signed(x: float) -> SignedLogValue:
    """Gamma(x) as a signed log value, defined for every real x.

    log|math.gamma(x)| and its sign where Gamma(x) is a normal double;
    elsewhere (x > 171.62, x < -171, next to a pole) math.lgamma(x), with
    the sign from the parity of floor(x).  Nonpositive integers are poles.
    """
    if math.isnan(x):
        raise ValueError("log_gamma_signed: argument is NaN")
    if x <= 0.0 and x == math.floor(x):
        return SignedLogValue(log_abs=math.inf, sign=1, pole=True)
    try:
        g = math.gamma(x)
    except OverflowError:
        g = math.inf
    if sys.float_info.min <= abs(g) < math.inf:
        return SignedLogValue(log_abs=math.log(abs(g)), sign=1 if g > 0.0 else -1)
    sign = -1 if x < 0.0 and math.floor(x) % 2 else 1
    return SignedLogValue(log_abs=math.lgamma(x), sign=sign)


@dataclass(frozen=True)
class LambdaResult:
    """Value of the power-law multiplier plus pole bookkeeping."""

    value: float
    log_abs: float
    sign: int
    zero_via_pole: bool
    infinite_via_pole: bool


def lambda_multiplier_detailed(tau: float, n: int, sigma: float) -> LambdaResult:
    """Multiplier of |x|^{-beta} under the fractional Laplacian, full detail.

    Assembled in log space as
    2^{2 sigma} G((n+2s+2t)/4) G((n+2s-2t)/4) / (G((n-2s-2t)/4) G((n-2s+2t)/4))
    with explicit sign tracking so large n or |tau| cannot overflow.
    A pole in a numerator Gamma gives an infinite result; a pole in a
    denominator Gamma gives an exact zero, flagged as such.
    """
    num1 = log_gamma_signed((n + 2.0 * sigma + 2.0 * tau) / 4.0)
    num2 = log_gamma_signed((n + 2.0 * sigma - 2.0 * tau) / 4.0)
    den1 = log_gamma_signed((n - 2.0 * sigma - 2.0 * tau) / 4.0)
    den2 = log_gamma_signed((n - 2.0 * sigma + 2.0 * tau) / 4.0)

    num_pole = num1.pole or num2.pole
    den_pole = den1.pole or den2.pole
    if num_pole and not den_pole:
        return LambdaResult(math.inf, math.inf, 1, False, True)
    if den_pole and not num_pole:
        return LambdaResult(0.0, -math.inf, 1, True, False)
    if num_pole and den_pole:
        raise ValueError("lambda_multiplier: simultaneous numerator and denominator poles")

    log_abs = (
        2.0 * sigma * math.log(2.0)
        + num1.log_abs
        + num2.log_abs
        - den1.log_abs
        - den2.log_abs
    )
    sign = num1.sign * num2.sign * den1.sign * den2.sign
    return LambdaResult(sign * math.exp(log_abs), log_abs, sign, False, False)


def lambda_multiplier(tau: float, n: int, sigma: float) -> float:
    """Multiplier of |x|^{-beta}: even in tau, positive for |tau| < (n-2s)/2."""
    return lambda_multiplier_detailed(tau, n, sigma).value


def singular_constant(params: ProblemParams) -> float:
    """Amplitude of the exact singular power-law solution.

    Requires alpha > -2 sigma and p above the Serrin-type exponent, so that
    the singular rate beta lies in (0, n-2 sigma) and the multiplier at
    tau = (n-2 sigma)/2 - beta is strictly positive.  A C that is not a
    normal double raises ValueError naming the overflow or underflow.
    """
    d = derive_exponents(params)
    if not params.alpha > -2.0 * params.sigma:
        raise ValueError(
            f"singular_constant requires alpha > -2*sigma, got alpha={params.alpha}, "
            f"-2*sigma={-2.0 * params.sigma}"
        )
    if not params.p > d.serrin:
        raise ValueError(
            f"singular_constant requires p > (n+alpha)/(n-2*sigma), got p={params.p}, "
            f"threshold={d.serrin}"
        )
    lam = lambda_multiplier_detailed(d.tau, params.n, params.sigma)
    log_c = lam.log_abs / (params.p - 1.0)
    if not math.log(sys.float_info.min) <= log_c < math.log(sys.float_info.max):
        flow = "overflows" if log_c > 0.0 else "underflows"
        raise ValueError(
            f"singular_constant {flow}: log C = log(Lambda)/(p-1) = {log_c:.6g} is outside "
            "the logs of the normal doubles"
        )
    return lam.value ** (1.0 / (params.p - 1.0))


@lru_cache(maxsize=256)
def kappa_sigma(sigma: float) -> float:
    """Constant linking the weighted Neumann flux of the extension to the operator."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"kappa_sigma requires sigma in (0,1), got {sigma}")
    g1 = log_gamma_signed(1.0 - sigma)
    g2 = log_gamma_signed(sigma)
    return math.exp(g1.log_abs - g2.log_abs - (2.0 * sigma - 1.0) * math.log(2.0))


@lru_cache(maxsize=256)
def poisson_normalizer(n: int, sigma: float) -> float:
    """Normalizer giving the extension's Poisson kernel unit mass in x."""
    g1 = log_gamma_signed((n + 2.0 * sigma) / 2.0)
    g2 = log_gamma_signed(sigma)
    return math.exp(g1.log_abs - g2.log_abs - 0.5 * n * math.log(math.pi))


@lru_cache(maxsize=256)
def hypersingular_normalizer(n: int, sigma: float) -> float:
    """Normalizer of the principal-value singular integral.

    Chosen so that the quadrature of the operator on power profiles
    reproduces ``lambda_multiplier``; validated by that cross-check rather
    than taken on faith.
    """
    g1 = log_gamma_signed((n + 2.0 * sigma) / 2.0)
    g2 = log_gamma_signed(1.0 - sigma)
    return sigma * math.exp(
        2.0 * sigma * math.log(2.0)
        + g1.log_abs
        - g2.log_abs
        - 0.5 * n * math.log(math.pi)
    )


def classical_limit_constant(n: int, alpha: float, p: float) -> float:
    """Second-order (sigma -> 1) amplitude from the ODE shooting analysis."""
    if n < 3:
        raise ValueError(f"classical_limit_constant requires n >= 3, got n={n}")
    if not -2.0 < alpha < 2.0:
        raise ValueError(f"classical_limit_constant requires -2 < alpha < 2, got {alpha}")
    lo = (n + alpha) / (n - 2.0)
    hi = (n + 2.0) / (n - 2.0)
    if not lo < p < hi:
        raise ValueError(
            f"classical_limit_constant requires (n+alpha)/(n-2) < p < (n+2)/(n-2), "
            f"got p={p} outside ({lo}, {hi})"
        )
    base = (2.0 + alpha) * (n - 2.0) / (p - 1.0) ** 2 * (p - lo)
    return base ** (1.0 / (p - 1.0))


@lru_cache(maxsize=256)
def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} in R^d."""
    g = log_gamma_signed(d / 2.0)
    return 2.0 * math.exp(0.5 * d * math.log(math.pi) - g.log_abs)
