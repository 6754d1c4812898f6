"""Numerical verification toolkit for singular solutions of fractional
Hardy-Henon equations: closed-form constants, principal-value quadrature of
the nonlocal operator, the half-space extension with its monotonicity
energy, and the exponent-regime classifier."""

from .params import (
    ParamError,
    ProblemParams,
    DerivedExponents,
    RegimeLabel,
    RegimeVerdict,
    validate_params,
    derive_exponents,
    classify_regime,
)
from .specialfn import (
    SignedLogValue,
    log_gamma_signed,
    lambda_multiplier,
    lambda_multiplier_detailed,
    singular_constant,
    kappa_sigma,
    poisson_normalizer,
    hypersingular_normalizer,
    classical_limit_constant,
    unit_sphere_area,
)
from .fraclap import (
    RadialProfile,
    QuadratureConfig,
    QuadratureError,
    power_profile,
    combine_profiles,
    check_Lsigma_membership,
    frac_laplacian_radial,
    verify_fall_identity,
)
from .extension import (
    ExtensionField,
    FowlerField,
    SphereProfile,
    poisson_extend_radial,
    neumann_flux,
    fowler_map,
    fowler_unmap,
    exact_sphere_profile,
    exact_extension_field,
    verify_sphere_ode,
    verify_barrier_identity,
)
from .cylinder import CylinderGrid, CylinderSolveResult, SolverDivergence, solve_cylinder_pde
from .cylinder import solve_end_perturbed
from .energy import (
    EnergyTrace,
    MonotonicityVerdict,
    energy_cylinder,
    energy_halfsphere,
    energy_trace,
    derivative_identity_check,
    monotonicity_verdict,
)
from .kelvin import (
    KelvinMap,
    kelvin_profile,
    kelvin_exponent,
    verify_equivalences,
    constant_invariance,
)

__version__ = "0.1.0"
