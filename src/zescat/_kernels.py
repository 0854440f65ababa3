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
# One call evaluates a whole argument array; each regime takes the points
# the ones before it left open, selected by masks:
#   * ascending power series where s <= 12 or s <= nu, kept where its
#     cancellation is bounded (sum of |terms| over |sum| <= 1e4);
#   * large-argument modulus/phase (Hankel) expansion at order nu where
#     s >= 30, kept where its smallest term is at rounding (DLMF 10.17);
#   * where s >= 30 and s > nu, upward recurrence (DLMF 10.6.1) from the
#     Hankel values at orders f = frac(nu) and f + 1, which are at rounding
#     for s >= 30: floor(nu) steps, stable while every order stays below s;
#   * the rest (s < 30, or s <= nu with a failed series) by backward
#     (Miller) recurrence normalized with the Neumann-type sum
#     sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}(s) = (s/2)^f (DLMF 3.6).
# A point's value depends on its own argument only, never on the other
# points of the array, so scalar and array calls agree bit for bit.
# =====================================================================

_SERIES_MAX_TERMS = 200
_SERIES_CHUNK = 32
_SERIES_COND_MAX = 1.0e4
_HANKEL_MIN_S = 30.0
_HANKEL_TOL = 3.0e-14
_HANKEL_J = np.arange(1.0, 41.0)
_HANKEL_ODD2 = (2.0 * _HANKEL_J - 1.0) ** 2
# (-1)^i: term j = 2i+1 enters the sine sum with this sign, term j = 2i+2
# the cosine sum with the opposite one
_HANKEL_SIGNS = np.tile([1.0, -1.0], 10)
_MILLER_START = 1e-305
_MILLER_RESCALE = 1e250


def _bessel_series(nu, s):
    """Ascending series at each point; returns (values, cancellation condition).

    Term k is term k-1 times -(s/2)^2 / (k (nu + k)); the terms come 32
    at a time, one row per k, and a point's sum stops at its first term
    below 1e-18 of the sum. A point still open after 200 terms gets
    condition 1e300.
    """
    half = 0.5 * s
    # the leading term takes log and exp from the standard library, like
    # lgamma; numpy's may differ in the last bit, which a cancellation of
    # up to 1e4 turns into a change of order 1e-12 in the sum
    lt = np.array([nu * math.log(h) for h in half]) - lgamma_kernel(nu + 1.0)
    val = np.zeros_like(s)  # a leading term below e^-745 underflows: J is 0
    cond = np.ones_like(s)
    live = np.flatnonzero(lt >= -745.0)
    nq = -(half[live] * half[live])
    term = np.array([math.exp(x) for x in lt[live]])
    total = absum = term
    # a series that overflows ends in inf or nan, which its guard rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(1, _SERIES_MAX_TERMS + 1, _SERIES_CHUNK):
            if not live.size:
                break
            k = np.arange(k0, min(k0 + _SERIES_CHUNK, _SERIES_MAX_TERMS + 1), dtype=float)
            terms = np.empty((k.size + 1, live.size))
            terms[0] = term
            for i, d in enumerate((k * (nu + k)).tolist(), 1):
                np.multiply(terms[i - 1], nq, out=terms[i])
                terms[i] /= d
            term = terms[-1].copy()
            sums = terms.copy()
            sums[0] = total
            np.cumsum(sums, axis=0, out=sums)
            abssums = np.abs(terms, out=terms)
            done = abssums[1:] <= 1e-18 * np.abs(sums[1:]) + 1e-308
            abssums[0] = absum
            np.cumsum(abssums, axis=0, out=abssums)
            hit = done.any(axis=0)
            cols = np.flatnonzero(hit)
            first = done[:, cols].argmax(axis=0) + 1
            v = sums[first, cols]
            val[live[cols]] = v
            cond[live[cols]] = abssums[first, cols] / np.maximum(np.abs(v), 1e-308)
            rest = ~hit
            live, nq = live[rest], nq[rest]
            term, total, absum = term[rest], sums[-1, rest], abssums[-1, rest]
    val[live] = total
    cond[live] = 1e300
    return val, cond


def _bessel_hankel(nu, s):
    """Modulus/phase expansion at each point; returns (values, smallest term).

    ``nu`` is one order for all points or one order per point. Term j is
    kept while the terms shrink and the term before it is at least 1e-17.
    """
    mu4 = np.reshape(4.0 * nu * nu, (-1, 1))
    t = np.cumprod((mu4 - _HANKEL_ODD2) / (8.0 * s[:, None] * _HANKEL_J), axis=1)
    at = np.abs(t)
    prev = np.empty_like(at)
    prev[:, 0] = 1e300
    prev[:, 1:] = at[:, :-1]
    keep = np.logical_and.accumulate((at < prev) & (prev >= 1e-17), axis=1)
    kept = np.where(keep, t, 0.0)
    q = (kept[:, 0::2] * _HANKEL_SIGNS).sum(axis=1)
    p = 1.0 - (kept[:, 1::2] * _HANKEL_SIGNS).sum(axis=1)
    minterm = np.where(keep, at, 1e300).min(axis=1)
    chi = s - (0.5 * nu + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * s)) * (p * np.cos(chi) - q * np.sin(chi)), minterm


def _bessel_upward(nu, s):
    """J_{f+k+1} = (2(f+k)/s) J_{f+k} - J_{f+k-1} up to order nu, from Hankel
    seeds at orders f = frac(nu) and f + 1 (every point has s >= 30 and
    s > nu)."""
    n = int(nu)
    frac = nu - n
    m = s.size
    seeds, _ = _bessel_hankel(np.repeat([frac, frac + 1.0], m), np.concatenate((s, s)))
    jp, jc = seeds[:m], seeds[m:]
    if n == 0:
        return jp
    for k in range(1, n):
        jp, jc = jc, (2.0 * (frac + k) / s) * jc - jp
    return jc


def _bessel_miller(nu, s):
    """Backward recurrence with Neumann-series normalization, all points at once.

    Every point here has s < 30 or s <= nu, so one start index, set by
    max(nu, 30), serves them all. A point whose value passes 1e250 is
    scaled by a power of two, which is exact, so when the check runs does
    not change any result.
    """
    n = int(nu)
    frac = nu - n
    reach = max(nu, _HANKEL_MIN_S)
    top = math.ceil(reach) + max(40, int(10.0 * reach ** (1.0 / 3.0) + 0.5))
    if frac == 0.0:
        weights = np.full(top // 2 + 1, 2.0)
        weights[0] = 1.0
    else:
        k = np.arange(1.0, top // 2 + 1)
        # grouped so a tiny frac is never absorbed into the integer part
        ratios = (frac + 2.0 * k) * (frac + (k - 1.0)) / ((frac + (2.0 * k - 2.0)) * k)
        weights = np.cumprod(np.concatenate(([gamma_kernel(frac + 1.0)], ratios)))
    # |J| grows by at most this factor a step, so checking every `every`
    # steps keeps each value below 1e250 * 1e40
    growth = 1.0 + 2.0 * (frac + top) / s.min()
    every = max(1, int(40.0 / math.log10(growth)))
    jp = np.zeros_like(s)
    jc = np.full_like(s, _MILLER_START)
    total = np.zeros_like(s)
    at_n = np.zeros_like(s)
    for j in range(top, 0, -1):
        jp, jc = jc, (2.0 * (frac + j) / s) * jc - jp
        # jc is now the value at order frac + j - 1
        if j % 2 == 1:
            total = total + weights[(j - 1) // 2] * jc
        if j - 1 == n:
            at_n = jc
        if j % every == 0:
            mag = np.abs(jc)
            if mag.max() > _MILLER_RESCALE:
                e = np.where(mag > _MILLER_RESCALE, np.frexp(mag)[1], 0)
                jc, jp = np.ldexp(jc, -e), np.ldexp(jp, -e)
                total, at_n = np.ldexp(total, -e), np.ldexp(at_n, -e)
    return at_n * (0.5 * s) ** frac / total


def bessel_j_grid_kernel(nu, s, out):
    """J_nu at every point of the 1-D array ``s`` (finite, >= 0) into ``out``."""
    todo = s > 0.0
    out[~todo] = 1.0 if nu == 0.0 else 0.0
    pts = np.flatnonzero(todo & ((s <= 12.0) | (s <= nu)))
    if pts.size:
        val, cond = _bessel_series(nu, s[pts])
        ok = cond <= _SERIES_COND_MAX
        out[pts[ok]] = val[ok]
        todo[pts[ok]] = False
    far = s >= _HANKEL_MIN_S
    pts = np.flatnonzero(todo & far)
    if pts.size:
        val, minterm = _bessel_hankel(nu, s[pts])
        ok = minterm <= _HANKEL_TOL
        out[pts[ok]] = val[ok]
        todo[pts[ok]] = False
    pts = np.flatnonzero(todo & far & (s > nu))
    if pts.size:
        out[pts] = _bessel_upward(nu, s[pts])
        todo[pts] = False
    pts = np.flatnonzero(todo)
    if pts.size:
        out[pts] = _bessel_miller(nu, s[pts])


def bessel_j_kernel(nu, s):
    """J_nu(s) for nu >= 0, s >= 0 (inputs validated by the caller)."""
    out = np.empty(1)
    bessel_j_grid_kernel(nu, np.array([s], dtype=float), out)
    return float(out[0])
