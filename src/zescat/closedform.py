"""Closed-form zero-energy radial solution and its tail phase/amplitude.

For a channel with index nu the regular solution of

    -f'' + ((nu^2 - 1/4)/r^2 - alpha r^(-mu)) f = 0,   r > 0,

normalized by r^(-nu-1/2) f(r) -> 1 at the origin, is

    f(r) = Gamma(nt + 1) ((2-mu)/sqrt(alpha))^nt  r^(1/2)  J_nt(b r^sigma),

with nt = 2 nu/(2-mu), b = 2 sqrt(alpha)/(2-mu) and sigma = (2-mu)/2.
Its tail oscillates as r^(mu/4) C sin(b r^sigma + D) with

    C = pi^(-1/2) Gamma(nt + 1) ((2-mu)/sqrt(alpha))^(nt + 1/2),
    D = -pi nu/(2-mu) + pi/4   (mod 2 pi).

This module evaluates f, the boundary normalization, C and D directly from
these expressions. The independent numerical pipeline in
:mod:`zescat.numeric` never calls anything here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import gamma_kernel, lgamma_kernel
from .channels import Channel
from .specfn import _GAMMA_OVERFLOW_X, bessel_j

__all__ = [
    "PhaseAmplitude",
    "closed_form_f",
    "boundary_normalization",
    "closed_form_amplitude",
    "closed_form_amplitude_variant",
    "closed_form_phase",
    "reduce_angle",
]

_LOG_MAX_DOUBLE = 709.0


def _wrap_half_turns(x: float) -> float:
    """Reduce x to (-1, 1] modulo 2. IEEE remainder makes this exact."""
    r = math.remainder(x, 2.0)
    if r <= -1.0:
        r += 2.0
    return r


def reduce_angle(theta: float) -> float:
    """Reduce an angle in radians to (-pi, pi]."""
    return math.pi * _wrap_half_turns(theta / math.pi)


@dataclass(frozen=True)
class PhaseAmplitude:
    """Tail amplitude C > 0 and phase D in radians, reduced to (-pi, pi]."""

    amplitude_C: float
    phase_D: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude_C) and self.amplitude_C > 0.0):
            raise ValueError(f"amplitude must be > 0, got {self.amplitude_C!r}")
        if not (math.isfinite(self.phase_D)
                and -math.pi < self.phase_D <= math.pi + 1e-15):
            raise ValueError(f"phase must lie in (-pi, pi], got {self.phase_D!r}")


def _prefactor(ch: Channel, extra_half_power: bool,
               base: float | None = None) -> float:
    """Gamma(nt+1) * base^p with base = (2-mu)/sqrt(alpha), p = nt (+ 1/2).

    ``base`` overrides the power base (the diagnostic variant amplitude
    uses another). Evaluated directly while Gamma and base^p stay in
    range. Otherwise Gamma(nt+1) = Gamma(y) prod_{i<m} (y+i) with y =
    nt+1-m in range (m = 0 when only base^p underflows), and the product
    Gamma(y) base^(p-m) prod_{i<m} (y+i) base is carried as a mantissa and
    a binary exponent, so no partial product leaves double range. Raises
    OverflowError once the value itself leaves the normal double range,
    above or below.
    """
    nt = ch.nu_tilde
    if base is None:
        base = (2.0 - ch.mu) / math.sqrt(ch.alpha)
    p = nt + 0.5 if extra_half_power else nt
    log_pref = lgamma_kernel(nt + 1.0) + (p * math.log(base) if p > 0.0 else 0.0)
    if log_pref > _LOG_MAX_DOUBLE:
        raise OverflowError(
            f"normalization prefactor overflows double precision "
            f"(log = {log_pref:.1f}) for nu_tilde = {nt}"
        )
    if nt + 1.0 <= _GAMMA_OVERFLOW_X:
        power = base ** p
        if power >= sys.float_info.min:
            return _normal(gamma_kernel(nt + 1.0) * power, nt)
    m = max(0, math.ceil(nt + 1.0 - _GAMMA_OVERFLOW_X))
    y = nt + 1.0 - m
    # base^(p-m) = mb^k base^f 2^(eb k) with p-m = k + f, base = mb 2^eb
    k, f = divmod(p - m, 1.0)
    mb, eb = math.frexp(base)
    mant, expo = math.frexp(gamma_kernel(y) * mb ** k * base ** f)
    expo += eb * int(k)
    for i in range(m):
        mant, e = math.frexp(mant * ((y + i) * base))
        expo += e
    return _normal(math.ldexp(mant, expo), nt)


def _normal(value: float, nt: float) -> float:
    """``value`` if it is a normal double. Below that range it has lost
    digits or is 0.0, so it is reported like a value above the range."""
    if value < sys.float_info.min:
        raise OverflowError(
            f"normalization underflows double precision ({value:.3g}) for "
            f"nu_tilde = {nt}"
        )
    return value


def _validated_radii(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        raise ValueError("radius must be finite and > 0")
    return arr


def closed_form_f(ch: Channel, r):
    """The regular zero-energy solution f(r), scalar or elementwise.

    Raises OverflowError when the normalization prefactor leaves the
    normal double range (very large nu_tilde, or a power base far from 1).
    """
    arr = _validated_radii(r)
    pref = _prefactor(ch, extra_half_power=False)
    s = ch.b * arr ** ch.sigma
    val = pref * np.sqrt(arr) * bessel_j(ch.nu_tilde, s)
    return float(val) if arr.ndim == 0 else val


def boundary_normalization(ch: Channel, r):
    """r^(-nu-1/2) f(r); tends to 1 as r -> 0."""
    arr = _validated_radii(r)
    val = closed_form_f(ch, arr) * arr ** (-ch.nu - 0.5)
    return float(val) if np.ndim(val) == 0 else val


def closed_form_amplitude(ch: Channel) -> float:
    """Tail amplitude C = pi^(-1/2) Gamma(nt+1) ((2-mu)/sqrt(alpha))^(nt+1/2).

    Equivalently Gamma(nt+1) (2/b)^nt sqrt(2/(pi b)), the amplitude forced
    by the closed form together with the large-argument Bessel asymptotics.
    Raises OverflowError when C leaves the normal double range.
    """
    return _normal(_prefactor(ch, extra_half_power=True) / math.sqrt(math.pi),
                   ch.nu_tilde)


def closed_form_amplitude_variant(ch: Channel) -> float:
    """Variant constant with (2 - nu) in place of (2 - mu) in the power base.

    Kept purely as a diagnostic: it is inconsistent with the normalization
    of :func:`closed_form_f` whenever nu != mu (the verify report exposes
    the ratio to the fitted amplitude), and it is undefined for nu >= 2.
    """
    base = (2.0 - ch.nu) / math.sqrt(ch.alpha)
    if base <= 0.0:
        raise ValueError(
            f"variant amplitude undefined for nu = {ch.nu} >= 2 "
            "(negative power base)"
        )
    return _normal(_prefactor(ch, extra_half_power=True, base=base)
                   / math.sqrt(math.pi), ch.nu_tilde)


def closed_form_phase(ch: Channel) -> float:
    """Tail phase D = -pi nu/(2-mu) + pi/4, reduced to (-pi, pi].

    The reduction is done in units of pi with IEEE ``remainder`` so that
    large multiples of pi (nu_tilde of order thousands) lose no precision.
    """
    # nu/(2-mu) is rounded exactly as in the spectral-multiplier route.
    half_turns = 0.25 - ch.nu / (2.0 - ch.mu)
    return math.pi * _wrap_half_turns(half_turns)
