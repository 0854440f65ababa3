"""Potential parameters and per-channel derived constants.

The operator is -Laplacian - alpha |x|^(-mu) on R^d with d >= 2, 0 < mu < 2
and alpha > 0. Restricted to spherical harmonics of order l, the radial
problem is governed by the effective index

    nu = l + (d - 2)/2,

and the zero-energy solutions oscillate in the variable b r^((2-mu)/2) with
frequency b = 2 sqrt(alpha)/(2 - mu). The Liouville transformation maps the
radial equation onto Bessel's equation of order nu_tilde = 2 nu/(2 - mu);
all downstream modules consume these constants through :class:`Channel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ParameterError",
    "PotentialParams",
    "Channel",
    "make_channel",
]

# mu values this close to an endpoint are rejected rather than clamped:
# nu_tilde and b blow up as mu -> 2, and silent clamping would corrupt
# every derived quantity.
_MU_EDGE = 1e-9


class ParameterError(ValueError):
    """Raised when potential parameters violate their constraints."""


@dataclass(frozen=True)
class PotentialParams:
    """The triple (d, mu, alpha) defining -Laplacian - alpha |x|^(-mu).

    Constraints: integer d >= 2, 0 < mu < 2, alpha > 0. All violations are
    collected and reported together.
    """

    d: int
    mu: float
    alpha: float

    def __post_init__(self):
        problems = []
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            problems.append(f"d must be an integer, got {self.d!r}")
        elif self.d < 2:
            problems.append(f"d must satisfy d >= 2, got {self.d}")
        mu = self.mu
        if not (isinstance(mu, (int, float)) and math.isfinite(mu)):
            problems.append(f"mu must be a finite real, got {mu!r}")
        elif not (_MU_EDGE < mu < 2.0 - _MU_EDGE):
            problems.append(
                f"mu must satisfy 0 < mu < 2 (at least {_MU_EDGE} from the "
                f"endpoints), got {mu}"
            )
        alpha = self.alpha
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
            problems.append(f"alpha must be a finite real, got {alpha!r}")
        elif alpha <= 0.0:
            problems.append(f"alpha must satisfy alpha > 0, got {alpha}")
        if problems:
            raise ParameterError("; ".join(problems))
        object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "alpha", float(alpha))


@dataclass(frozen=True)
class Channel:
    """One angular-momentum sector of (d, mu, alpha) and its derived constants.

    Only (d, mu, alpha, l) are given; the rest is computed here and nowhere
    else. No validation happens at this level (:func:`make_channel` checks
    its inputs), so a hand-built channel may, e.g., set alpha = 0.

    Attributes
    ----------
    d, mu, alpha : int, float, float
        The potential parameters, carried exactly as given.
    l : int
        Spherical-harmonic order, >= 0.
    nu : float
        Effective radial index, l + (d - 2)/2.
    nu_tilde : float
        Bessel order after the Liouville transformation, 2 nu/(2 - mu).
    b : float
        Oscillation frequency 2 sqrt(alpha)/(2 - mu).
    sigma : float
        Exponent of the oscillation variable r^sigma, sigma = (2 - mu)/2.
    """

    d: int
    mu: float
    alpha: float
    l: int
    nu: float = field(init=False)
    nu_tilde: float = field(init=False)
    b: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        nu = self.l + (self.d - 2) / 2.0
        two_minus_mu = 2.0 - self.mu
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "nu_tilde", 2.0 * nu / two_minus_mu)
        object.__setattr__(self, "b", 2.0 * math.sqrt(self.alpha) / two_minus_mu)
        object.__setattr__(self, "sigma", two_minus_mu / 2.0)


def make_channel(params: PotentialParams, l: int) -> Channel:
    """Build the :class:`Channel` for angular momentum l under ``params``."""
    if not isinstance(l, int) or isinstance(l, bool) or l < 0:
        raise ParameterError(f"l must be a nonnegative integer, got {l!r}")
    return Channel(d=params.d, mu=params.mu, alpha=params.alpha, l=l)
