"""Real-order special functions: Gamma and the Bessel function J_nu.

Gamma comes from the standard library; the Bessel evaluator is
self-contained (no external special-function library) and evaluates a
whole argument array in numpy, choosing a regime per point by masks:
ascending series, Hankel expansion, upward recurrence from Hankel seeds,
and backward (Miller) recurrence, in that order (see
:mod:`zescat._kernels`). Accuracy, as the tests check it against mpmath:

* ``gamma``: relative error below 1e-14 on [1e-6, 171.5]; above 171.624
  Gamma leaves the double range and ``gamma`` raises OverflowError.
* ``log_gamma``: error below 2e-15 max(1, |log Gamma(x)|) on [1e-3, 1e6].
* ``bessel_j``: error below 1e-10 max(|J|, envelope), where the envelope
  is sqrt(2/(pi s)) for s above the order and 0 below it, for orders in
  [0, 60] and arguments in [0, 1e4], and for the orders up to 150 that the
  verification sweep reaches. Larger orders are supported; the series
  regime (argument below the order) retains full accuracy there.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (
    bessel_j_grid_kernel,
    bessel_j_kernel,
    gamma_kernel,
    lgamma_kernel,
)

__all__ = [
    "gamma",
    "log_gamma",
    "bessel_j",
    "bessel_j_asymptotic",
]

# Gamma(x) overflows double precision just above this point.
_GAMMA_OVERFLOW_X = 171.624


def _order_value(order) -> float:
    nu = float(order)
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"Bessel order must be finite and >= 0, got {order!r}")
    return nu


def gamma(x: float) -> float:
    """Gamma function for positive real argument.

    Parameters
    ----------
    x : float
        Argument, must be finite and > 0.

    Returns
    -------
    float
        Gamma(x).

    Raises
    ------
    ValueError
        If ``x <= 0`` or is not finite.
    OverflowError
        If Gamma(x) exceeds the double-precision range (x > ~171.62).
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"gamma requires a finite argument > 0, got {x!r}")
    if x > _GAMMA_OVERFLOW_X:
        raise OverflowError(f"gamma({x}) exceeds double precision range")
    return gamma_kernel(x)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (no overflow for large x)."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"log_gamma requires a finite argument > 0, got {x!r}")
    return lgamma_kernel(x)


def bessel_j(order, s):
    """Bessel function of the first kind, J_nu(s), real order nu >= 0.

    Each point takes the first regime that holds for it: the ascending
    power series (s <= 12 or s <= nu, kept only while its cancellation
    stays bounded); the large-argument modulus/phase expansion at order nu
    (s >= 30, kept once its terms reach rounding); for s >= 30 and s > nu,
    upward recurrence from that expansion at orders frac(nu) and
    frac(nu) + 1, which costs floor(nu) steps; and otherwise a backward
    (Miller) recurrence with a Neumann-series normalization. A point's
    value does not depend on the other points of ``s``.

    Parameters
    ----------
    order : float
        Order nu, finite and >= 0.
    s : float or array_like
        Argument(s), each >= 0.

    Returns
    -------
    float or numpy.ndarray
        J_nu(s), matching the shape of ``s``.
    """
    nu = _order_value(order)
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 0:
        sv = float(arr)
        if not (math.isfinite(sv) and sv >= 0.0):
            raise ValueError(f"bessel_j requires s >= 0, got {s!r}")
        return bessel_j_kernel(nu, sv)
    if not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
        raise ValueError("bessel_j requires all arguments finite and >= 0")
    flat = np.ascontiguousarray(arr.ravel())
    out = np.empty_like(flat)
    bessel_j_grid_kernel(nu, flat, out)
    return out.reshape(arr.shape)


def bessel_j_asymptotic(order, s):
    """Leading large-argument term sqrt(2/(pi s)) sin(s - pi nu/2 + pi/4).

    Diagnostic companion to :func:`bessel_j`; exact for nu = 1/2, and off by
    O(1/s) otherwise. Not used as a production evaluator.

    Parameters
    ----------
    order : float
        Order nu, finite and >= 0.
    s : float or array_like
        Argument(s), each > 0.
    """
    nu = _order_value(order)
    arr = np.asarray(s, dtype=float)
    if not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        raise ValueError("bessel_j_asymptotic requires s > 0")
    val = np.sqrt(2.0 / (np.pi * arr)) * np.sin(arr - 0.5 * np.pi * nu + 0.25 * np.pi)
    return float(val) if arr.ndim == 0 else val
