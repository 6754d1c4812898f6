"""Reference values computed apart from the program.

Everything here is evaluated with mpmath at 30 digits straight from the
Gamma-ratio formulas of the paper; nothing calls ``hardyhenon``.  Inputs are
the same binary floats the program receives, converted exactly.
"""

from __future__ import annotations

from mpmath import gamma, mp, mpf, pi

mp.dps = 30

#: Worst criterion-4 amplitude deviation |C - C0| / C0 at sigma = 0.999,
#: pinned from an independent 40-digit evaluation.
CRITERION_4_WORST = 2.94645032265515e-3


def exponents(n, sigma, alpha, p) -> dict:
    """Derived exponents and the regime thresholds the label depends on."""
    n, sigma, alpha, p = mpf(n), mpf(sigma), mpf(alpha), mpf(p)
    m = n - 2 * sigma
    beta = (2 * sigma + alpha) / (p - 1)
    hardy_sobolev = (n + 2 * sigma + 2 * alpha) / m
    return {
        "beta": beta,
        "tau": m / 2 - beta,
        "serrin": (n + alpha) / m,
        "hardy_sobolev": hardy_sobolev,
        "vartheta": p * m - (n + 2 * sigma + alpha),
        "J1": m / (p - 1) * (hardy_sobolev - p),
    }


def multiplier(tau, n, sigma):
    """Lambda(tau): the factor (-Delta)^sigma |x|^{-beta} = Lambda |x|^{-beta-2 sigma}."""
    tau, n, sigma = mpf(tau), mpf(n), mpf(sigma)
    return (
        mpf(2) ** (2 * sigma)
        * gamma((n + 2 * sigma + 2 * tau) / 4)
        * gamma((n + 2 * sigma - 2 * tau) / 4)
        / (gamma((n - 2 * sigma - 2 * tau) / 4) * gamma((n - 2 * sigma + 2 * tau) / 4))
    )


def amplitude(n, sigma, alpha, p):
    """C = Lambda(tau)^{1/(p-1)} of the singular solution C |x|^{-beta}."""
    d = exponents(n, sigma, alpha, p)
    return multiplier(d["tau"], n, sigma) ** (1 / (mpf(p) - 1))


def fall_target(n, sigma, alpha, p, r):
    """(-Delta)^sigma r^{-beta} at radius r: Lambda(tau) r^{-beta-2 sigma}."""
    d = exponents(n, sigma, alpha, p)
    return multiplier(d["tau"], n, sigma) * mpf(r) ** (-d["beta"] - 2 * mpf(sigma))


def kappa(sigma):
    """Flux constant kappa_sigma = Gamma(1-s) / (Gamma(s) 2^{2s-1})."""
    sigma = mpf(sigma)
    return gamma(1 - sigma) / (gamma(sigma) * mpf(2) ** (2 * sigma - 1))


def flux_target(n, sigma, alpha, p, r):
    """Weighted Neumann flux of the exact extension: kappa C^p r^{alpha - beta p}."""
    d = exponents(n, sigma, alpha, p)
    c = amplitude(n, sigma, alpha, p)
    return kappa(sigma) * c ** mpf(p) * mpf(r) ** (mpf(alpha) - d["beta"] * mpf(p))


def poisson_normalizer(n, sigma):
    n, sigma = mpf(n), mpf(sigma)
    return gamma((n + 2 * sigma) / 2) / (gamma(sigma) * pi ** (n / 2))


def hypersingular_normalizer(n, sigma):
    n, sigma = mpf(n), mpf(sigma)
    return sigma * mpf(2) ** (2 * sigma) * gamma((n + 2 * sigma) / 2) / (gamma(1 - sigma) * pi ** (n / 2))


def classical_amplitude(n, alpha, p):
    """Second-order (sigma -> 1) amplitude, or None outside its range."""
    if n < 3 or not -2 < alpha < 2:
        return None
    n, alpha, p = mpf(n), mpf(alpha), mpf(p)
    lo = (n + alpha) / (n - 2)
    hi = (n + 2) / (n - 2)
    if not lo < p < hi:
        return None
    return ((2 + alpha) * (n - 2) / (p - 1) ** 2 * (p - lo)) ** (1 / (p - 1))


def regime_label(n, sigma, alpha, p) -> str:
    """Regime from the threshold inequalities; inputs must sit off every threshold."""
    if mpf(alpha) < -2 * mpf(sigma):
        return "NonexistenceAlphaBelowMinus2Sigma"
    d = exponents(n, sigma, alpha, p)
    if p < d["serrin"]:
        return "ExteriorTriviality"
    if p < d["hardy_sobolev"]:
        return "Subcritical"
    return "Supercritical"


def self_check() -> None:
    """Reproduce the criterion-4 pin: worst amplitude deviation at sigma = 0.999."""
    worst = mpf(0)
    for n in (3, 4):
        for alpha in (-0.5, 0.0, 0.5):
            p = 0.5 * ((n + alpha) / (n - 2.0) + (n + 2.0) / (n - 2.0))
            c = amplitude(n, 0.999, alpha, p)
            c0 = classical_amplitude(n, alpha, p)
            worst = max(worst, abs(c - c0) / c0)
    if abs(worst / CRITERION_4_WORST - 1) > 1e-12:
        raise RuntimeError(
            f"reference self-check failed: criterion-4 worst deviation {float(worst)!r}, "
            f"pinned {CRITERION_4_WORST!r}"
        )
