"""Zero-energy scattering for the attractive power-law potential.

Computes, for the operator -Laplacian - alpha |x|^(-mu) on R^d (d >= 2,
0 < mu < 2, alpha > 0), the tail phase and amplitude of the regular
zero-energy radial solution in every angular-momentum channel, and the
resulting diagonal action of the zero-energy scattering matrix S(0) on
spherical harmonics. A closed-form Bessel evaluation and an independent
numerical pipeline (Frobenius seed, adaptive integration, least-squares
tail fit) are both provided and cross-checked.
"""

from .channels import (
    Channel,
    ParameterError,
    PotentialParams,
    make_channel,
)
from .closedform import (
    PhaseAmplitude,
    boundary_normalization,
    closed_form_amplitude,
    closed_form_amplitude_variant,
    closed_form_f,
    closed_form_phase,
    reduce_angle,
)
from .numeric import (
    FitWindowError,
    FrobeniusSeed,
    IntegrationError,
    RadialSolutionSample,
    TailFit,
    TailFitError,
    circular_difference,
    extract_phase_amplitude,
    frobenius_seed,
    integrate_radial,
    solve_channel,
)
from .smatrix import (
    HarmonicCoefficients,
    IdentityReport,
    apply_s0,
    eigenvalue_via_multiplier,
    eigenvalue_via_phase,
    harmonic_dim,
    verify_theorem_identity,
)
from .specfn import bessel_j, bessel_j_asymptotic, gamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "FitWindowError",
    "FrobeniusSeed",
    "HarmonicCoefficients",
    "IdentityReport",
    "IntegrationError",
    "ParameterError",
    "PhaseAmplitude",
    "PotentialParams",
    "RadialSolutionSample",
    "TailFit",
    "TailFitError",
    "apply_s0",
    "bessel_j",
    "bessel_j_asymptotic",
    "boundary_normalization",
    "circular_difference",
    "closed_form_amplitude",
    "closed_form_amplitude_variant",
    "closed_form_f",
    "closed_form_phase",
    "eigenvalue_via_multiplier",
    "eigenvalue_via_phase",
    "extract_phase_amplitude",
    "frobenius_seed",
    "gamma",
    "harmonic_dim",
    "integrate_radial",
    "log_gamma",
    "make_channel",
    "reduce_angle",
    "solve_channel",
    "verify_theorem_identity",
]
