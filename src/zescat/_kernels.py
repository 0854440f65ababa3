"""Numeric kernels: special functions and the radial integrator.

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
    # Python floats throughout: numpy scalar arithmetic is several times
    # slower and gives the same IEEE results.
    grid = r_out.item
    nu, mu, alpha, rtol = float(nu), float(mu), float(alpha), float(rtol)
    isfinite = math.isfinite
    sqrt = math.sqrt
    a2 = nu * nu - 0.25
    neg_mu = -mu

    r = float(r0)
    f = float(f0)
    fp = float(fp0)
    try:
        q = (a2 / r) / r - alpha * r ** neg_mu
    except OverflowError:
        # r ** neg_mu overflows to inf; only r0 can, later radii are larger
        q = (a2 / r) / r - alpha * math.inf
    k1f = fp
    k1p = q * f

    h = 0.01 / max(sqrt(abs(q)), 1.0 / r)
    errold = 1e-4
    n_steps = 0
    n_rej = 0
    max_err = 0.0

    j = 0
    while j < n_out and grid(j) <= r:
        out_f[j] = f
        out_fp[j] = fp
        j += 1

    while j < n_out:
        target = grid(j)
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
        k2p = ((a2 / rr) / rr - alpha * rr ** neg_mu) * yf

        rr = r + 0.3 * h
        yf = f + h * (0.075 * k1f + 0.225 * k2f)
        yp = fp + h * (0.075 * k1p + 0.225 * k2p)
        k3f = yp
        k3p = ((a2 / rr) / rr - alpha * rr ** neg_mu) * yf

        rr = r + 0.8 * h
        yf = f + h * ((44.0 / 45.0) * k1f - (56.0 / 15.0) * k2f + (32.0 / 9.0) * k3f)
        yp = fp + h * ((44.0 / 45.0) * k1p - (56.0 / 15.0) * k2p + (32.0 / 9.0) * k3p)
        k4f = yp
        k4p = ((a2 / rr) / rr - alpha * rr ** neg_mu) * yf

        rr = r + (8.0 / 9.0) * h
        yf = f + h * ((19372.0 / 6561.0) * k1f - (25360.0 / 2187.0) * k2f
                      + (64448.0 / 6561.0) * k3f - (212.0 / 729.0) * k4f)
        yp = fp + h * ((19372.0 / 6561.0) * k1p - (25360.0 / 2187.0) * k2p
                       + (64448.0 / 6561.0) * k3p - (212.0 / 729.0) * k4p)
        k5f = yp
        k5p = ((a2 / rr) / rr - alpha * rr ** neg_mu) * yf

        rr = r + h
        q = (a2 / rr) / rr - alpha * rr ** neg_mu   # stages 6, 7 and the error scale
        yf = f + h * ((9017.0 / 3168.0) * k1f - (355.0 / 33.0) * k2f
                      + (46732.0 / 5247.0) * k3f + (49.0 / 176.0) * k4f
                      - (5103.0 / 18656.0) * k5f)
        yp = fp + h * ((9017.0 / 3168.0) * k1p - (355.0 / 33.0) * k2p
                       + (46732.0 / 5247.0) * k3p + (49.0 / 176.0) * k4p
                       - (5103.0 / 18656.0) * k5p)
        k6f = yp
        k6p = q * yf

        nf = f + h * ((35.0 / 384.0) * k1f + (500.0 / 1113.0) * k3f
                      + (125.0 / 192.0) * k4f - (2187.0 / 6784.0) * k5f
                      + (11.0 / 84.0) * k6f)
        np_ = fp + h * ((35.0 / 384.0) * k1p + (500.0 / 1113.0) * k3p
                        + (125.0 / 192.0) * k4p - (2187.0 / 6784.0) * k5p
                        + (11.0 / 84.0) * k6p)
        k7f = np_
        k7p = q * nf

        ef = h * ((71.0 / 57600.0) * k1f - (71.0 / 16695.0) * k3f
                  + (71.0 / 1920.0) * k4f - (17253.0 / 339200.0) * k5f
                  + (22.0 / 525.0) * k6f - (1.0 / 40.0) * k7f)
        ep = h * ((71.0 / 57600.0) * k1p - (71.0 / 16695.0) * k3p
                  + (71.0 / 1920.0) * k4p - (17253.0 / 339200.0) * k5p
                  + (22.0 / 525.0) * k6p - (1.0 / 40.0) * k7p)

        if not (isfinite(nf) and isfinite(np_) and isfinite(ef) and isfinite(ep)):
            n_rej += 1
            h *= 0.25
            if h < r * 5e-15:
                return out_f, out_fp, DOPRI_NONFINITE, n_steps, n_rej, max_err, r
            continue

        w = max(sqrt(abs(q)), 1e-300)
        scf = rtol * (abs(nf) + abs(np_) / w)
        scp = rtol * (abs(np_) + abs(nf) * w)
        try:
            err = sqrt(0.5 * ((ef / scf) ** 2 + (ep / scp) ** 2))
        except (OverflowError, ZeroDivisionError):
            err = math.inf      # an inf or nan error rejects the step

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
