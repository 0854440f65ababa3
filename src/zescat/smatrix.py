"""The zero-energy scattering matrix S(0) on spherical harmonics.

S(0) is diagonal in the spherical-harmonic basis. Its eigenvalue on an
order-l harmonic can be computed two ways:

* route 1, from the tail phase D_l of the regular radial solution:
      exp(i 2 (D_l + (pi/4)(d - 3 + 2l))),
* route 2, as a spectral multiplier in the Laplace-Beltrami operator:
      exp(-i (pi mu/(2-mu)) sqrt(l(l+d-2) + ((d-2)/2)^2))
    = exp(-i (pi mu/(2-mu)) nu).

With D_l = -pi nu/(2-mu) + pi/4 the two coincide identically; comparing
them per channel is the core consistency check of the package. All angles
are assembled in units of pi, reduced modulo 2 with IEEE ``remainder``
(exact), and exponentiated once, so the agreement survives at l ~ 100 and
mu near 2 where the raw angles reach thousands of radians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import closedform
from .channels import Channel, ParameterError, PotentialParams, make_channel
from .closedform import _wrap_half_turns

__all__ = [
    "HarmonicCoefficients",
    "harmonic_dim",
    "eigenvalue_via_phase",
    "eigenvalue_via_multiplier",
    "verify_theorem_identity",
    "IdentityReport",
    "apply_s0",
]


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Coefficients of an expansion over spherical harmonics on S^(d-1).

    ``entries`` holds (l, m, coefficient) with 0 <= l <= max_order and m
    indexing the order-l multiplicity space: dimension 1 for l = 0 and 2
    for l >= 1 when d = 2 (the cos/sin pair convention), and
    (2l+d-2) (l+d-3)! / (l! (d-2)!) for d >= 3.
    """

    d: int
    entries: tuple[tuple[int, int, complex], ...]
    max_order: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {self.max_order}")
        for l, m, _ in self.entries:
            if not 0 <= l <= self.max_order:
                raise ValueError(f"order {l} outside [0, {self.max_order}]")
            dim = harmonic_dim(self.d, l)
            if not 0 <= m < dim:
                raise ValueError(
                    f"multiplicity index {m} outside [0, {dim}) for (d={self.d}, l={l})"
                )

    @property
    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for _, _, c in self.entries))


def harmonic_dim(d: int, l: int) -> int:
    """Dimension of the space of order-l spherical harmonics on S^(d-1)."""
    if d < 2 or l < 0:
        raise ValueError(f"need d >= 2 and l >= 0, got d={d}, l={l}")
    if d == 2:
        return 1 if l == 0 else 2
    return ((2 * l + d - 2) * math.factorial(l + d - 3)
            // (math.factorial(l) * math.factorial(d - 2)))


def eigenvalue_via_phase(ch: Channel, D: float) -> complex:
    """exp(i 2 (D + (pi/4)(d - 3 + 2l))), from the tail phase D.

    Uses d - 3 + 2l = 2 nu - 1. The result is invariant under 2 pi shifts
    of D up to rounding.
    """
    if not math.isfinite(D):
        raise ValueError(f"phase must be finite, got {D!r}")
    half_turns = _wrap_half_turns(2.0 * (D / math.pi) + (ch.nu - 0.5))
    return cmath.exp(1j * math.pi * half_turns)


def eigenvalue_via_multiplier(params: PotentialParams, l: int) -> complex:
    """exp(-i (pi mu/(2-mu)) sqrt(l(l+d-2) + ((d-2)/2)^2)).

    The square root is the exact effective index nu = l + (d-2)/2 (the
    radicand is a perfect square of a half-integer).
    """
    if l < 0:
        raise ParameterError(f"l must be >= 0, got {l}")
    d = params.d
    nu = math.sqrt(l * (l + d - 2) + ((d - 2) / 2.0) ** 2)
    half_turns = _wrap_half_turns(-params.mu * (nu / (2.0 - params.mu)))
    return cmath.exp(1j * math.pi * half_turns)


@dataclass(frozen=True)
class IdentityReport:
    """Per-channel route differences |via_phase - via_multiplier|, and the
    route-2 (multiplier) eigenvalues they were measured against.

    Carries no alpha: neither route depends on the coupling strength, and
    reports for different alpha compare equal.
    """

    d: int
    mu: float
    l_max: int
    differences: tuple[float, ...]
    max_difference: float
    eigenvalues: tuple[complex, ...]


def verify_theorem_identity(params: PotentialParams, L: int,
                            phase_fn=None) -> IdentityReport:
    """Compare both eigenvalue routes for every l <= L.

    Route 1 uses ``phase_fn`` (default: the closed-form tail phase); route
    2 is the spectral multiplier. The exact identity
    2 (D_l + (pi/4)(d-3+2l)) = -pi mu nu/(2-mu) (mod 2 pi) makes the
    difference pure rounding for a correct build.
    """
    if L < 0:
        raise ParameterError(f"L must be >= 0, got {L}")
    if phase_fn is None:
        phase_fn = closedform.closed_form_phase
    diffs = []
    eigs = []
    for l in range(L + 1):
        ch = make_channel(params, l)
        e_phase = eigenvalue_via_phase(ch, phase_fn(ch))
        e_mult = eigenvalue_via_multiplier(params, l)
        diffs.append(abs(e_phase - e_mult))
        eigs.append(e_mult)
    return IdentityReport(
        d=params.d, mu=params.mu, l_max=L,
        differences=tuple(diffs), max_difference=max(diffs),
        eigenvalues=tuple(eigs),
    )


def apply_s0(params: PotentialParams, coeffs: HarmonicCoefficients) -> HarmonicCoefficients:
    """Apply S(0): multiply each order-l coefficient by its eigenvalue.

    The action is diagonal and m-independent; the multiplicity structure
    is preserved, and the coefficient-vector norm is unchanged up to
    rounding.
    """
    if params.d != coeffs.d:
        raise ParameterError(
            f"dimension mismatch: params.d = {params.d}, coefficients.d = {coeffs.d}"
        )
    eig_cache: dict[int, complex] = {}
    new_entries = []
    for l, m, c in coeffs.entries:
        if l not in eig_cache:
            eig_cache[l] = eigenvalue_via_multiplier(params, l)
        new_entries.append((l, m, c * eig_cache[l]))
    return HarmonicCoefficients(d=coeffs.d, entries=tuple(new_entries),
                                max_order=coeffs.max_order)
