"""Numeric kernels: the special functions.

Plain Python over floats and numpy arrays, one code path per kernel.
Gamma and log Gamma are the standard library's ``math.gamma`` and
``math.lgamma`` (relative error about 1e-15); the two names below are the
one binding that :mod:`zescat.specfn` and :mod:`zescat.closedform` call.
"""

from __future__ import annotations

import math

import numpy as np

gamma_kernel = math.gamma
lgamma_kernel = math.lgamma


# =====================================================================
# Bessel function of the first kind, real order nu >= 0, s >= 0
#
# Three evaluation regimes:
#   * ascending power series, used when its cancellation is bounded
#     (sum of |terms| tracked alongside the signed sum),
#   * large-argument modulus/phase expansion,
#   * backward (Miller) recurrence normalized with the Neumann-type sum
#     sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}(s) = (s/2)^f, f = frac(nu),
#     which covers the transition region where neither expansion holds.
# =====================================================================

_SERIES_MAX_TERMS = 200
_SERIES_COND_MAX = 1.0e4
_HANKEL_MIN_S = 30.0
_HANKEL_TOL = 3.0e-14


def _bessel_series(nu, s):
    """Ascending series; returns (value, cancellation_condition)."""
    half = 0.5 * s
    lt = nu * math.log(half) - lgamma_kernel(nu + 1.0)
    if lt < -745.0:
        return 0.0, 1.0  # leading term underflows: J is 0 to double precision
    term = math.exp(lt)
    q = half * half
    total = term
    absum = term
    converged = False
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = -term * q / (k * (nu + k))
        total += term
        absum += abs(term)
        if abs(term) <= 1e-18 * abs(total) + 1e-308:
            converged = True
            break
    if not converged:
        return total, 1e300
    return total, absum / max(abs(total), 1e-308)


def _bessel_hankel(nu, s):
    """Modulus/phase asymptotic expansion; returns (value, smallest_term)."""
    mu4 = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    t = 1.0
    minterm = 1e300
    j = 0
    while j < 40:
        j += 1
        t = t * (mu4 - (2.0 * j - 1.0) ** 2) / (8.0 * s * j)
        at = abs(t)
        if at >= minterm:
            break  # series started diverging; stop before polluting the sums
        minterm = at
        m = j // 2
        sgn = -1.0 if (m & 1) == 1 else 1.0
        if (j & 1) == 1:
            q += sgn * t
        else:
            p += sgn * t
        if at < 1e-17:
            break
    chi = s - (0.5 * nu + 0.25) * math.pi
    val = math.sqrt(2.0 / (math.pi * s)) * (p * math.cos(chi) - q * math.sin(chi))
    return val, minterm


def _bessel_miller(nu, s):
    """Backward recurrence with Neumann-series normalization."""
    n = int(math.floor(nu))
    frac = nu - n
    top = int(max(n, int(math.ceil(s)))
              + max(40, int(10.0 * max(s, 1.0) ** (1.0 / 3.0) + 0.5)))
    vals = np.empty(top + 1)
    jp = 0.0
    jc = 1e-305
    vals[top] = jc
    for j in range(top, 0, -1):
        order = frac + j
        jm = (2.0 * order / s) * jc - jp
        jp = jc
        jc = jm
        vals[j - 1] = jc
        if abs(jc) > 1e250:
            inv = 1.0 / abs(jc)
            jc *= inv
            jp *= inv
            for i in range(j - 1, top + 1):
                vals[i] *= inv
    if frac == 0.0:
        total = vals[0]
        for k in range(2, top + 1, 2):
            total += 2.0 * vals[k]
        return vals[n] / total
    w = math.exp(lgamma_kernel(frac + 1.0))
    total = w * vals[0]
    k = 0
    for j in range(2, top + 1, 2):
        k += 1
        # grouped so a tiny frac is never absorbed into the integer part
        w *= (frac + 2.0 * k) * (frac + (k - 1.0)) / ((frac + (2.0 * k - 2.0)) * k)
        total += w * vals[j]
    return vals[n] * math.exp(frac * math.log(0.5 * s)) / total


def bessel_j_kernel(nu, s):
    """J_nu(s) for nu >= 0, s >= 0 (inputs validated by the caller)."""
    if s == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if s <= 12.0 or s <= nu:
        val, cond = _bessel_series(nu, s)
        if cond <= _SERIES_COND_MAX:
            return val
    if s >= _HANKEL_MIN_S:
        val, minterm = _bessel_hankel(nu, s)
        if minterm <= _HANKEL_TOL:
            return val
    return _bessel_miller(nu, s)


def bessel_j_grid_kernel(nu, s, out):
    for i in range(s.shape[0]):
        out[i] = bessel_j_kernel(nu, s[i])
