"""Numeric kernels: special functions and the radial integrator.

Everything in this module is scalar/array arithmetic with no Python object
state, so the functions can be compiled with numba. When numba is available
(and not disabled) every kernel is wrapped in ``numba.njit``; otherwise the
same source runs as plain Python over numpy arrays. Set the environment
variable ``ZESCAT_NO_NUMBA=1`` before import to force the interpreted path,
e.g. for debugging or benchmarking (see ``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    import numba
except ImportError:  # pragma: no cover
    numba = None


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = numba is not None and not _env_flag("ZESCAT_NO_NUMBA")

if NUMBA_ENABLED:
    def _jit(func):
        return numba.njit(func, cache=True)
else:
    def _jit(func):
        return func


# =====================================================================
# Gamma function (Lanczos approximation, g = 7, 9 coefficients)
# =====================================================================

_LG = 7.0
_LC0 = 0.99999999999980993
_LC1 = 676.5203681218851
_LC2 = -1259.1392167224028
_LC3 = 771.32342877765313
_LC4 = -176.61502916214059
_LC5 = 12.507343278686905
_LC6 = -0.13857109526572012
_LC7 = 9.9843695780195716e-6
_LC8 = 1.5056327351493116e-7

_HALF_LOG_2PI = 0.9189385332046727
_SQRT_2PI = 2.5066282746310002


@_jit
def _lanczos_sum(z):
    # z = x - 1 with x >= 0.5
    return (_LC0 + _LC1 / (z + 1.0) + _LC2 / (z + 2.0) + _LC3 / (z + 3.0)
            + _LC4 / (z + 4.0) + _LC5 / (z + 5.0) + _LC6 / (z + 6.0)
            + _LC7 / (z + 7.0) + _LC8 / (z + 8.0))


@_jit
def lgamma_kernel(x):
    """log Gamma(x) for x > 0."""
    if x < 0.5:
        # reflection keeps the Lanczos argument in its accurate range
        z = -x
        return (math.log(math.pi / math.sin(math.pi * x))
                - (_HALF_LOG_2PI + (z + 0.5) * math.log(z + _LG + 0.5)
                   - (z + _LG + 0.5) + math.log(_lanczos_sum(z))))
    z = x - 1.0
    t = z + _LG + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(_lanczos_sum(z))


@_jit
def gamma_kernel(x):
    """Gamma(x) for 0 < x < 171.62 (overflow guarded by callers)."""
    if x < 0.5:
        y = 1.0 - x
        z = y - 1.0
        t = z + _LG + 0.5
        g = _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)
        return math.pi / (math.sin(math.pi * x) * g)
    if x > 140.0:
        # the direct power t**(z+0.5) overflows before Gamma itself does
        return math.exp(lgamma_kernel(x))
    z = x - 1.0
    t = z + _LG + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)


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


@_jit
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


@_jit
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


@_jit
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


@_jit
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


@_jit
def bessel_j_grid_kernel(nu, s, out):
    for i in range(s.shape[0]):
        out[i] = bessel_j_kernel(nu, s[i])


# =====================================================================
# Radial zero-energy equation, integrated with a Dormand-Prince 5(4)
# embedded pair and PI step control:
#
#     f'' = ((nu^2 - 1/4)/r^2 - alpha r^(-mu)) f
#
# Local error is measured relative to the oscillation envelope
# |f| + |f'|/w, w = sqrt(|coefficient|), so the control is scale free
# over the enormous dynamic range of f (the equation is linear).
# Output is sampled on a caller-supplied strictly increasing grid by
# clamping steps onto the grid points.
# =====================================================================

DOPRI_OK = 0
DOPRI_STEP_UNDERFLOW = 1
DOPRI_NONFINITE = 2


@_jit
def dopri5_radial_kernel(nu, mu, alpha, r0, f0, fp0, r_out, rtol):
    """Returns (f_out, fp_out, status, n_steps, n_rejected, max_err, r_fail).

    The error scale is purely relative, rtol times the local oscillation
    envelope. There is no absolute term: f grows from r0^(nu+1/2) at the
    origin, and any fixed floor would swamp those tiny values and silently
    disable error control there.
    """
    n_out = r_out.shape[0]
    out_f = np.empty(n_out)
    out_fp = np.empty(n_out)
    a2 = nu * nu - 0.25

    r = r0
    f = f0
    fp = fp0
    k1f = fp
    k1p = ((a2 / r) / r - alpha * r ** (-mu)) * f

    q0 = abs((a2 / r) / r - alpha * r ** (-mu))
    h = 0.01 / max(math.sqrt(q0), 1.0 / r)
    errold = 1e-4
    n_steps = 0
    n_rej = 0
    max_err = 0.0

    j = 0
    while j < n_out and r_out[j] <= r:
        out_f[j] = f
        out_fp[j] = fp
        j += 1

    while j < n_out:
        target = r_out[j]
        if target - r <= r * 1e-15:
            # indistinguishable from the current point at double precision
            out_f[j] = f
            out_fp[j] = fp
            j += 1
            continue
        hit = False
        if r + h >= target:
            h = target - r
            hit = True
        elif h < r * 5e-15:
            return out_f, out_fp, DOPRI_STEP_UNDERFLOW, n_steps, n_rej, max_err, r

        # Dormand-Prince stages (FSAL: k7 of an accepted step is next k1)
        rr = r + 0.2 * h
        yf = f + h * 0.2 * k1f
        yp = fp + h * 0.2 * k1p
        k2f = yp
        k2p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * yf

        rr = r + 0.3 * h
        yf = f + h * (0.075 * k1f + 0.225 * k2f)
        yp = fp + h * (0.075 * k1p + 0.225 * k2p)
        k3f = yp
        k3p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * yf

        rr = r + 0.8 * h
        yf = f + h * ((44.0 / 45.0) * k1f - (56.0 / 15.0) * k2f + (32.0 / 9.0) * k3f)
        yp = fp + h * ((44.0 / 45.0) * k1p - (56.0 / 15.0) * k2p + (32.0 / 9.0) * k3p)
        k4f = yp
        k4p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * yf

        rr = r + (8.0 / 9.0) * h
        yf = f + h * ((19372.0 / 6561.0) * k1f - (25360.0 / 2187.0) * k2f
                      + (64448.0 / 6561.0) * k3f - (212.0 / 729.0) * k4f)
        yp = fp + h * ((19372.0 / 6561.0) * k1p - (25360.0 / 2187.0) * k2p
                       + (64448.0 / 6561.0) * k3p - (212.0 / 729.0) * k4p)
        k5f = yp
        k5p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * yf

        rr = r + h
        yf = f + h * ((9017.0 / 3168.0) * k1f - (355.0 / 33.0) * k2f
                      + (46732.0 / 5247.0) * k3f + (49.0 / 176.0) * k4f
                      - (5103.0 / 18656.0) * k5f)
        yp = fp + h * ((9017.0 / 3168.0) * k1p - (355.0 / 33.0) * k2p
                       + (46732.0 / 5247.0) * k3p + (49.0 / 176.0) * k4p
                       - (5103.0 / 18656.0) * k5p)
        k6f = yp
        k6p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * yf

        nf = f + h * ((35.0 / 384.0) * k1f + (500.0 / 1113.0) * k3f
                      + (125.0 / 192.0) * k4f - (2187.0 / 6784.0) * k5f
                      + (11.0 / 84.0) * k6f)
        np_ = fp + h * ((35.0 / 384.0) * k1p + (500.0 / 1113.0) * k3p
                        + (125.0 / 192.0) * k4p - (2187.0 / 6784.0) * k5p
                        + (11.0 / 84.0) * k6p)
        k7f = np_
        k7p = ((a2 / rr) / rr - alpha * rr ** (-mu)) * nf

        ef = h * ((71.0 / 57600.0) * k1f - (71.0 / 16695.0) * k3f
                  + (71.0 / 1920.0) * k4f - (17253.0 / 339200.0) * k5f
                  + (22.0 / 525.0) * k6f - (1.0 / 40.0) * k7f)
        ep = h * ((71.0 / 57600.0) * k1p - (71.0 / 16695.0) * k3p
                  + (71.0 / 1920.0) * k4p - (17253.0 / 339200.0) * k5p
                  + (22.0 / 525.0) * k6p - (1.0 / 40.0) * k7p)

        if not (math.isfinite(nf) and math.isfinite(np_)
                and math.isfinite(ef) and math.isfinite(ep)):
            n_rej += 1
            h *= 0.25
            if h < r * 5e-15:
                return out_f, out_fp, DOPRI_NONFINITE, n_steps, n_rej, max_err, r
            continue

        w = max(math.sqrt(abs((a2 / rr) / rr - alpha * rr ** (-mu))), 1e-300)
        scf = rtol * (abs(nf) + abs(np_) / w)
        scp = rtol * (abs(np_) + abs(nf) * w)
        err = math.sqrt(0.5 * ((ef / scf) ** 2 + (ep / scp) ** 2))

        if err <= 1.0:
            n_steps += 1
            if err > max_err:
                max_err = err
            r = rr
            f = nf
            fp = np_
            k1f = k7f
            k1p = k7p
            if hit:
                out_f[j] = f
                out_fp[j] = fp
                j += 1
            if err > 0.0:
                fac = 0.9 * err ** -0.14 * errold ** 0.08
            else:
                fac = 5.0
            errold = max(err, 1e-10)
        else:
            n_rej += 1
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))

    return out_f, out_fp, DOPRI_OK, n_steps, n_rej, max_err, r
