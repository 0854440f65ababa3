"""Reference values computed apart from zescat.

Angles are exact rationals in half-turns (units of pi), built from the
exact binary values of the float inputs with :class:`fractions.Fraction`
and reduced modulo 2 without rounding. Amplitudes and Bessel values come
from mpmath at 40 significant digits. Nothing here imports zescat, and
mpmath is imported on first use, so that the benchmark's set-up time
holds only zescat's.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


@functools.cache
def mp():
    """The mpmath module, set to 40 significant digits."""
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def nu_exact(d: int, l: int) -> Fraction:
    """Effective radial index nu = l + (d - 2)/2."""
    return l + Fraction(d - 2, 2)


def wrap_half_turns(t: Fraction) -> Fraction:
    """Reduce t modulo 2 into (-1, 1], exactly."""
    r = t - 2 * math.floor((t + 1) / 2)
    return Fraction(1) if r == -1 else r


def tail_phase_half_turns(d: int, mu: float, l: int) -> tuple[Fraction, Fraction]:
    """(reduced, unreduced) D / pi with D = pi/4 - pi nu/(2 - mu)."""
    raw = Fraction(1, 4) - nu_exact(d, l) / (2 - Fraction(mu))
    return wrap_half_turns(raw), raw


def eigen_half_turns(d: int, mu: float, l: int) -> tuple[Fraction, Fraction]:
    """(reduced, unreduced) angle / pi of exp(-i pi mu nu/(2 - mu))."""
    raw = -Fraction(mu) * nu_exact(d, l) / (2 - Fraction(mu))
    return wrap_half_turns(raw), raw


def _mpf(q: Fraction):
    return mp().mpf(q.numerator) / q.denominator


def radians(t: Fraction) -> float:
    """pi t rounded once to a double."""
    return float(mp().pi * _mpf(t))


def unit_phasor(t: Fraction) -> complex:
    """exp(i pi t) rounded once per component."""
    x = _mpf(t)
    return complex(float(mp().cospi(x)), float(mp().sinpi(x)))


def angle_tolerance(raw: Fraction) -> float:
    """Rounding allowance, in radians, for a double evaluation of pi * raw.

    zescat forms the unreduced angle with three roundings (2 - mu, the
    quotient, the product), each at most half an ulp of the result, then
    reduces it exactly. Four ulps of |raw| times pi, plus a few ulps of
    one turn for the final multiply and exp, covers that.
    """
    return math.pi * 4.0 * math.ulp(max(abs(float(raw)), 1.0)) + 8.0 * 2.0 ** -52


def circular_distance(a: float, b: float) -> float:
    """|a - b| reduced modulo 2 pi to [0, pi]."""
    return abs(math.remainder(a - b, 2.0 * math.pi))


class ChannelRef:
    """Channel constants for (d, mu, alpha, l) in mpmath."""

    def __init__(self, d: int, mu: float, alpha: float, l: int):
        self.d, self.mu, self.alpha, self.l = d, mu, alpha, l
        mu_m = mp().mpf(mu)
        self.two_minus_mu = 2 - mu_m
        self.nu = _mpf(nu_exact(d, l))
        self.nt = 2 * self.nu / self.two_minus_mu
        self.sqrt_alpha = mp().sqrt(mp().mpf(alpha))
        self.b = 2 * self.sqrt_alpha / self.two_minus_mu
        self.sigma = self.two_minus_mu / 2
        self.base = self.two_minus_mu / self.sqrt_alpha

    def log_amplitude(self):
        """log C, C = pi^(-1/2) Gamma(nt+1) ((2-mu)/sqrt(alpha))^(nt+1/2)."""
        return (mp().loggamma(self.nt + 1) + (self.nt + 0.5) * mp().log(self.base)
                - mp().log(mp().pi) / 2)

    def amplitude(self):
        return mp().exp(self.log_amplitude())

    def prefactor(self):
        """Gamma(nt+1) ((2-mu)/sqrt(alpha))^nt."""
        return mp().gamma(self.nt + 1) * self.base ** self.nt

    def f(self, r: float):
        """Closed-form regular solution and its Bessel argument at radius r."""
        r_m = mp().mpf(r)
        s = self.b * r_m ** self.sigma
        return self.prefactor() * mp().sqrt(r_m) * mp().besselj(self.nt, s), s

    def origin_bound(self, r: float) -> float:
        """2 |c_1| r^(2-mu) with c_1 = alpha/((2-mu)(2-mu+2nu))."""
        c1 = mp().mpf(self.alpha) / (self.two_minus_mu * (self.two_minus_mu + 2 * self.nu))
        return float(2 * abs(c1) * mp().mpf(r) ** self.two_minus_mu)
