"""Real-order special functions: Gamma and the Bessel function J_nu.

Gamma comes from the standard library; the Bessel evaluator is
self-contained (no external special-function library). Accuracy, as the
tests check it against mpmath:

* ``gamma``: relative error below 1e-14 on [1e-6, 171.5]; above 171.624
  Gamma leaves the double range and ``gamma`` raises OverflowError.
* ``log_gamma``: error below 2e-15 max(1, |log Gamma(x)|) on [1e-3, 1e6].
* ``bessel_j``: relative error below 1e-10 away from zeros and absolute
  error below 1e-10 near zeros, for orders in [0, 60] and arguments in
  [0, 1e4]. Larger orders are supported; the series regime (argument below
  the order) retains full accuracy there.

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

    The evaluator switches between the ascending power series (kept only
    while its internal cancellation stays bounded), the large-argument
    modulus/phase expansion, and a backward-recurrence scheme with a
    Neumann-series normalization for the transition region around the
    turning point s ~ nu.

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
