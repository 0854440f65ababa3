"""Independent numerical pipeline for the zero-energy radial equation.

The route is deliberately disjoint from :mod:`zescat.closedform`:

1. seed the regular solution at a small radius r0 with a Frobenius series
   f = r^(nu+1/2) sum_k c_k r^(k(2-mu)), c_0 = 1, whose recurrence

       c_k = -alpha c_{k-1} / (k(2-mu) (k(2-mu) + 2 nu))

   follows from substituting the series into the radial equation,
2. cross the classically forbidden zone up to theta = 0.95 nu_tilde as a
   Riccati equation for W = r f'/f and log f in t = log r, where f has no
   zero and W is smooth, while f itself grows over many decades of r,
3. integrate the linear equation outward in r from there with an
   adaptive Dormand-Prince 5(4) pair,
4. read the tail amplitude C and phase D off the state (u, u') at one
   sample through the two Kummer-phase solutions of the tail equation.

In the oscillation variable theta = b r^sigma, u = r^(-mu/4) f solves
u'' + q u = 0 with q = 1 - (nu_tilde^2 - 1/4)/theta^2. Its solutions are
Y^(1/2) sin(Phi) and Y^(1/2) cos(Phi), where Y = 1/Phi' is the
non-oscillatory squared envelope. Y solves a linear equation whose series
in theta^(-2) has a one-term recurrence in q alone, so no Bessel algebra
enters; it holds to rounding from theta = 1.5 nu_tilde out, and
Phi - theta -> 0 carries (C, D) to infinity analytically. The two have
Wronskian -1, so the state at theta_lo = max(20, 1.5 nu_tilde), past the
turning point theta = nu_tilde, where the march lands exactly, fixes
(C, D); the march stops one period later, and that period, sampled at the
integrator's own accepted steps, only checks the match. The cost grows as
nu_tilde, not nu_tilde^2: 3,482 integrator steps (1,972 Riccati, 1,510
linear) for the hardest sweep channel (d = 5, mu = 1.9, alpha = 0.5,
l = 6, nu_tilde = 150). Over the 420-channel verification sweep the match
agrees with the closed form to 1.8e-10 in D and 3.9e-10 in C.

Channels are independent pure computations and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel
from .closedform import PhaseAmplitude, reduce_angle

__all__ = [
    "IntegrationError",
    "FitWindowError",
    "TailFitError",
    "FrobeniusSeed",
    "RadialSolutionSample",
    "TailFit",
    "frobenius_seed",
    "integrate_radial",
    "extract_phase_amplitude",
    "solve_channel",
    "circular_difference",
    "default_match_radius",
    "default_theta_window",
    "default_rtol",
]

_MAX_SERIES_ORDER = 200
_SEED_TOL = 1e-14
_DEFAULT_RTOL = 1e-10
_MIN_RTOL = 2.0 ** -52     # tighter tolerances cannot be met in doubles
_MIN_WINDOW_THETA = 20.0
_ROUNDING = 2.0 ** -53     # half an ulp of 1
_FIT_TOL = 1e-5
_RICCATI_END = 0.95    # the Riccati march hands over at theta = 0.95 nu_tilde


class IntegrationError(RuntimeError):
    """Adaptive integration failed; ``radius`` records where."""

    def __init__(self, message: str, radius: float):
        super().__init__(f"{message} (at r = {radius:.6g})")
        self.radius = radius


class FitWindowError(ValueError):
    """The requested fit window cannot support a meaningful fit."""


class TailFitError(RuntimeError):
    """The tail fit converged but misses its residual tolerance."""


def _radius_at(ch: Channel, theta: float) -> float:
    try:
        return (theta / ch.b) ** (1.0 / ch.sigma)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class FrobeniusSeed:
    """The state (f, f') the truncated origin series gives at r0."""

    truncation_order: int
    match_radius: float
    seed_value: float
    seed_derivative: float


@dataclass(frozen=True, eq=False)
class RadialSolutionSample:
    """Accepted integrator states at strictly increasing radii, plus stats.

    From :func:`solve_channel`, ``n_steps``, ``n_rejected`` and
    ``max_error_estimate`` cover the Riccati march and the linear march.
    """

    r: np.ndarray
    f: np.ndarray
    df: np.ndarray
    n_steps: int
    n_rejected: int
    max_error_estimate: float


@dataclass(frozen=True, eq=False)
class TailFit:
    """Tail (C, D) matched at the sample's first state (``r_lo``,
    ``theta_lo``), with quality diagnostics over the whole sample."""

    phase_amplitude: PhaseAmplitude
    residual_rms: float
    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float
    n_points: int
    condition_number: float


def default_match_radius(ch: Channel) -> float:
    """Seed radius: min(1e-2, (0.1/alpha)^(1/(2-mu))), capped so the seed
    sits at oscillation coordinate theta <= 12 (the origin series is the
    Bessel series in theta; letting theta grow costs e^theta in
    cancellation, which is what matters for mu close to 2). A cap that
    overflows (tiny alpha) is no cap."""
    try:
        alpha_cap = (0.1 / ch.alpha) ** (1.0 / (2.0 - ch.mu))
    except OverflowError:
        alpha_cap = math.inf
    r0 = min(1e-2, alpha_cap, _radius_at(ch, 12.0))
    if r0 < 1e-140:
        # below this the equation coefficient ~1/r^2 and the integrator
        # state leave the double-precision range
        raise ValueError(
            "seed radius underflows the representable radial range for "
            "this channel (alpha too large or mu too close to 2 for the "
            "numerical route)"
        )
    return r0


def default_theta_window(ch: Channel) -> tuple[float, float]:
    """Fit window in the oscillation variable theta = b r^((2-mu)/2).

    Starts at max(20, 1.5 nu_tilde), 1.5 times the turning point
    theta = nu_tilde, from where the fit basis holds to rounding, and spans
    one period, over which the match is checked (147-246 accepted
    integrator steps on the verification sweep at :func:`default_rtol`).
    The seed sits at theta <= 12 (:func:`default_match_radius`), so the
    window always lies past it.
    """
    theta_lo = max(_MIN_WINDOW_THETA, 1.5 * ch.nu_tilde)
    return theta_lo, theta_lo + 2.0 * math.pi


def default_rtol(theta_max: float) -> float:
    """Integrator tolerance: 1e-10, or 4e-7/theta_max once the window ends
    past theta = 4000 (nu_tilde above about 2660 with the default window).

    The match's error in C is integrator error, linear in the tolerance: at
    1e-10 it stays below about 1.1e-3 tol n_steps relative (Riccati and
    linear steps together), 3.0e-11 to 4.6e-10 for nu_tilde from 20 to 161,
    while D stays within about 3e-11."""
    return min(_DEFAULT_RTOL, 4e-7 / theta_max)


def frobenius_seed(ch: Channel, r0: float) -> FrobeniusSeed:
    """Seed the regular solution at r0 from the origin series.

    The series is summed through its scaled terms t_k = c_k r0^(k(2-mu)),

        t_k = -t_{k-1} x / (k(2-mu) (k(2-mu) + 2 nu)),   x = alpha r0^(2-mu),

    which stay bounded by 1 however large alpha is (the bare coefficients
    c_k grow as alpha^k), until |t_k| <= 1e-14.

    Parameters
    ----------
    ch : Channel
        Channel constants.
    r0 : float
        Match radius, must satisfy alpha r0^(2-mu) < 1/2 so the series
        converges fast.

    Returns
    -------
    FrobeniusSeed
        The truncation order K and the seeded values f(r0), f'(r0).
    """
    if not (math.isfinite(r0) and r0 > 0.0):
        raise ValueError(f"r0 must be finite and > 0, got {r0!r}")
    step = 2.0 - ch.mu
    x = ch.alpha * r0 ** step
    if x >= 0.5:
        raise ValueError(
            f"r0 too large for the origin series: alpha r0^(2-mu) = {x:.3g} >= 1/2"
        )
    theta0 = ch.b * r0 ** ch.sigma
    if theta0 > 16.5:
        # the series terms peak near e^theta0; past this point double
        # precision cannot resolve the cancellation
        raise ValueError(
            f"r0 sits at oscillation coordinate theta = {theta0:.3g} > 16.5; "
            "the origin series would lose all precision to cancellation"
        )
    term = 1.0
    series_sum = 1.0            # sum t_k
    deriv_sum = ch.nu + 0.5     # sum t_k (nu + 1/2 + k(2-mu))
    for k in range(1, _MAX_SERIES_ORDER + 1):
        term = -term * x / (k * step * (k * step + 2.0 * ch.nu))
        series_sum += term
        deriv_sum += term * (ch.nu + 0.5 + k * step)
        if abs(term) <= _SEED_TOL:
            break
    else:
        raise ValueError(
            f"origin series did not reach |term| <= {_SEED_TOL:g} within "
            f"{_MAX_SERIES_ORDER} terms"
        )
    seed_value = r0 ** (ch.nu + 0.5) * series_sum
    seed_derivative = r0 ** (ch.nu - 0.5) * deriv_sum
    if seed_value == 0.0 or not (math.isfinite(seed_value)
                                 and math.isfinite(seed_derivative)):
        raise ValueError(
            f"seed state r0^(nu+1/2) underflows double precision at "
            f"r0 = {r0:g}, nu = {ch.nu:g}"
        )
    return FrobeniusSeed(
        truncation_order=k,
        match_radius=r0,
        seed_value=seed_value,
        seed_derivative=seed_derivative,
    )


def integrate_radial(ch: Channel, seed: FrobeniusSeed,
                     r_window: tuple[float, float],
                     tol: float) -> RadialSolutionSample:
    """Integrate the radial equation outward from the seed.

    The equation

        f'' = ((nu^2 - 1/4)/r^2 - alpha r^(-mu)) f

    is marched with a Dormand-Prince 5(4) embedded pair and PI step
    control. The steps that would cross r_lo and r_hi are cut to land on
    them, the march going on past r_lo at the step it had, and every state
    from r_lo on is recorded: the sample is the window at the integrator's
    own accepted steps, from exactly r_lo to exactly r_hi.

    Parameters
    ----------
    ch : Channel
        Channel constants.
    seed : FrobeniusSeed
        Starting state at ``seed.match_radius``.
    r_window : tuple of float
        ``(r_lo, r_hi)`` with match radius <= r_lo < r_hi < inf. The seed
        state is recorded only when r_lo is the match radius.
    tol : float
        Relative local-error tolerance per step, at least 2**-52 (a tighter
        one cannot be met in double precision and the march never ends).
        The error is measured against the local oscillation envelope
        |f| + |f'|/w, w = sqrt(|equation coefficient|), so the control
        stays meaningful over the huge dynamic range of f. There is no
        absolute floor: any fixed one would swamp the tiny values of f
        near the origin and silently disable error control there.

    Returns
    -------
    RadialSolutionSample

    Raises
    ------
    ValueError
        ``tol`` below 2**-52 or not finite, or an ``r_window`` that starts
        below the match radius, is empty or ends at a non-finite radius.
    IntegrationError
        Non-finite seed state, a step size that underflows the radius, or
        a state that stays non-finite however small the step (f outgrew
        the double range); ``radius`` records where.
    """
    if not (math.isfinite(tol) and tol >= _MIN_RTOL):
        raise ValueError(f"tol must be finite and >= 2**-52, got {tol!r}")
    r_lo, r_hi = float(r_window[0]), float(r_window[1])
    r = float(seed.match_radius)
    if not (r <= r_lo < r_hi < math.inf):
        raise ValueError("r_window must satisfy match radius <= r_lo < r_hi "
                         f"< inf, got {r_window!r} with match radius {r:g}")
    f = float(seed.seed_value)
    fp = float(seed.seed_derivative)
    if not (math.isfinite(f) and math.isfinite(fp)):
        # the march writes only this state and accepted states it has
        # checked, so this is the one place a non-finite value can enter
        raise IntegrationError("seed state is non-finite", r)

    out = [(r, f, fp)] if r == r_lo else []
    # Python floats throughout: numpy scalar arithmetic is several times
    # slower and gives the same IEEE results.
    nu, mu, alpha, rtol = float(ch.nu), float(ch.mu), float(ch.alpha), float(tol)
    isfinite = math.isfinite
    sqrt = math.sqrt
    a2 = nu * nu - 0.25
    neg_mu = -mu

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

    end = r_lo if r < r_lo else r_hi    # where a crossing step is cut to land
    while r < r_hi:
        landing = r + h >= end
        if landing:
            h_free, h = h, end - r
        elif h < r * 5e-15:
            raise IntegrationError("step size underflow", r)

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
                raise IntegrationError("state became non-finite", r)
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
            r = end if landing else rr
            f = nf
            fp = np_
            k1f = k7f
            k1p = k7p
            if r >= r_lo:
                out.append((r, f, fp))
            if landing:
                # not a step grown from a landing of a few ulps: it underflows
                h, end = h_free, r_hi
                continue
            if err > 0.0:
                fac = 0.9 * err ** -0.14 * errold ** 0.08
            else:
                fac = 5.0
            errold = max(err, 1e-10)
        else:
            n_rej += 1
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))

    r_out, f_out, fp_out = np.array(out).T
    return RadialSolutionSample(
        r=r_out, f=f_out, df=fp_out,
        n_steps=n_steps, n_rejected=n_rej, max_error_estimate=max_err,
    )


def _riccati_march(ch: Channel, seed: FrobeniusSeed, r_end: float,
                   tol: float) -> tuple[float, float, int, int, float]:
    """March the log-derivative W = r f'/f and log f from the seed to r_end.

    In t = log r the radial equation becomes the Riccati equation

        W' = W - W^2 + nu^2 - 1/4 - alpha e^((2-mu) t),   (log f)' = W.

    Below the turning point the regular solution has no zero, so W is
    smooth and the attracting solution of the forward march: the steps
    follow W, not the growth of f over many decades of r. The Dormand-Prince
    pair and PI control are those of :func:`integrate_radial`, at the same
    ``tol``; W's error is measured against tol (1 + |W|) and log f's
    against tol absolute, since it is the relative error of f. The last step
    is shortened to end exactly at log r_end.

    Returns
    -------
    tuple
        ``(W, log f, n_steps, n_rejected, max_error_estimate)`` at r_end.

    Raises
    ------
    IntegrationError
        A step size that underflows t, or a state that stays non-finite
        however small the step.
    """
    r0 = float(seed.match_radius)
    w = r0 * float(seed.seed_derivative) / float(seed.seed_value)
    lf = math.log(seed.seed_value)
    t = math.log(r0)
    t_end = math.log(r_end)
    # Python floats throughout, as in integrate_radial; alpha e^((2-mu) t) is
    # formed as one exp, which cannot overflow below r_end
    a2 = float(ch.nu) ** 2 - 0.25
    step = 2.0 - float(ch.mu)
    log_alpha = math.log(ch.alpha) if ch.alpha > 0.0 else -math.inf
    rtol = float(tol)
    exp = math.exp
    isfinite = math.isfinite
    sqrt = math.sqrt

    k1 = w - w * w + a2 - exp(log_alpha + step * t)
    h = 0.01 / max(abs(w), 1.0)
    errold = 1e-4
    n_steps = 0
    n_rej = 0
    max_err = 0.0

    while t < t_end:
        last = t + h >= t_end
        if last:
            h = t_end - t
        elif h < 5e-15 * max(abs(t), 1.0):
            raise IntegrationError("step size underflow", exp(t))

        # Dormand-Prince stages for W (FSAL); log f is the quadrature of the
        # stage values of W with the same weights. In the exponent of
        # alpha e^((2-mu) t), lx is its value at t and sh its growth over h.
        lx = log_alpha + step * t
        sh = step * h
        y2 = w + h * 0.2 * k1
        k2 = y2 - y2 * y2 + a2 - exp(lx + 0.2 * sh)
        y3 = w + h * (0.075 * k1 + 0.225 * k2)
        k3 = y3 - y3 * y3 + a2 - exp(lx + 0.3 * sh)
        y4 = w + h * ((44.0 / 45.0) * k1 - (56.0 / 15.0) * k2 + (32.0 / 9.0) * k3)
        k4 = y4 - y4 * y4 + a2 - exp(lx + 0.8 * sh)
        y5 = w + h * ((19372.0 / 6561.0) * k1 - (25360.0 / 2187.0) * k2
                      + (64448.0 / 6561.0) * k3 - (212.0 / 729.0) * k4)
        k5 = y5 - y5 * y5 + a2 - exp(lx + (8.0 / 9.0) * sh)
        x_end = exp(lx + sh)     # stages 6 and 7
        y6 = w + h * ((9017.0 / 3168.0) * k1 - (355.0 / 33.0) * k2
                      + (46732.0 / 5247.0) * k3 + (49.0 / 176.0) * k4
                      - (5103.0 / 18656.0) * k5)
        k6 = y6 - y6 * y6 + a2 - x_end

        nw = w + h * ((35.0 / 384.0) * k1 + (500.0 / 1113.0) * k3
                      + (125.0 / 192.0) * k4 - (2187.0 / 6784.0) * k5
                      + (11.0 / 84.0) * k6)
        nlf = lf + h * ((35.0 / 384.0) * w + (500.0 / 1113.0) * y3
                        + (125.0 / 192.0) * y4 - (2187.0 / 6784.0) * y5
                        + (11.0 / 84.0) * y6)
        k7 = nw - nw * nw + a2 - x_end

        ew = h * ((71.0 / 57600.0) * k1 - (71.0 / 16695.0) * k3
                  + (71.0 / 1920.0) * k4 - (17253.0 / 339200.0) * k5
                  + (22.0 / 525.0) * k6 - (1.0 / 40.0) * k7)
        el = h * ((71.0 / 57600.0) * w - (71.0 / 16695.0) * y3
                  + (71.0 / 1920.0) * y4 - (17253.0 / 339200.0) * y5
                  + (22.0 / 525.0) * y6 - (1.0 / 40.0) * nw)

        if not (isfinite(nw) and isfinite(nlf) and isfinite(ew) and isfinite(el)):
            n_rej += 1
            h *= 0.25
            if h < 5e-15 * max(abs(t), 1.0):
                raise IntegrationError("state became non-finite", exp(t))
            continue

        ew /= rtol * (1.0 + abs(nw))
        el /= rtol
        # products, not powers: an overflow gives inf and rejects the step
        err = sqrt(0.5 * (ew * ew + el * el))

        if err <= 1.0:
            n_steps += 1
            if err > max_err:
                max_err = err
            t = t_end if last else t + h
            w = nw
            lf = nlf
            k1 = k7
            if err > 0.0:
                fac = 0.9 * err ** -0.14 * errold ** 0.08
            else:
                fac = 5.0
            errold = max(err, 1e-10)
        else:
            n_rej += 1
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))

    return w, lf, n_steps, n_rej, max_err


def _kummer_series(nu_tilde: float, theta_lo: float) -> tuple[list, list]:
    """Kummer-phase basis of u'' + q u = 0, q = 1 - c/theta^2,
    c = nu_tilde^2 - 1/4, as series scaled for theta >= theta_lo.

    The squared envelope Y = u1^2 + u2^2 = 1/Phi' of two solutions of
    Wronskian 1 solves Y''' + 4 q Y' + 2 q' Y = 0, so Y = sum_j m_j
    theta^(-2j) has m_0 = 1 and m_j = m_(j-1) (2j-1) (c - j(j-1)) / (2j).
    Returns t_j = m_j theta_lo^(-2j) while they fall and until one reaches
    rounding (the series is asymptotic), and a_k theta_lo^(-2k) of
    Phi' = sum_k a_k theta^(-2k), by series division.
    """
    c = nu_tilde * nu_tilde - 0.25
    s = theta_lo ** -2.0
    t = [1.0]
    while abs(t[-1]) > _ROUNDING:
        j = len(t)
        term = t[-1] * (2 * j - 1) * (c - j * (j - 1)) / (2 * j) * s
        if abs(term) >= abs(t[-1]):
            break
        t.append(term)
    a = [1.0]
    for k in range(1, len(t)):
        a.append(-sum(t[j] * a[k - j] for j in range(1, k + 1)))
    return t, a


def extract_phase_amplitude(ch: Channel, sample: RadialSolutionSample) -> TailFit:
    """Match r^(-mu/4) f to the Kummer-phase basis of theta = b r^sigma.

    The sample is the window from theta_lo to theta_hi. In theta,
    u = r^(-mu/4) f solves u'' + q u = 0 with
    q = 1 - (nu_tilde^2 - 1/4)/theta^2, whose solutions are exactly
    u = C Y^(1/2) sin(Phi + D), Y = 1/Phi' the squared envelope and
    Phi = theta - sum_{k>=1} a_k theta^(1-2k)/(2k-1), so Phi - theta -> 0
    (``_kummer_series``, scaled at theta_lo). Y^(1/2) sin Phi and
    Y^(1/2) cos Phi have Wronskian -1, so with g = Y'/(2Y) the first state,
    at theta_lo, gives C sin(Phi + D) = u Y^(-1/2) and
    C cos(Phi + D) = Y^(1/2) (u' - g u); D is reduced to (-pi, pi]. The rest
    checks the match: ``residual_rms`` is the rms of u - C Y^(1/2) sin(Phi + D)
    over the sample, and ``condition_number`` that of the basis matrix
    [[u1, u2], [u1', u2']] at the match point.

    Raises
    ------
    FitWindowError
        Degenerate window (fewer than 10 points or under one oscillation
        period), window outside the deep oscillatory regime
        (theta_lo < 20), window starting at or inside the turning point
        (theta_lo <= nu_tilde), or a zero state at the match point.
    TailFitError
        Residual RMS above 1e-5 times the matched amplitude.
    """
    r, f, df = sample.r, sample.f, sample.df
    if r.size < 10:
        raise FitWindowError(f"window holds only {r.size} sample points (< 10)")
    theta = ch.b * r ** ch.sigma
    theta_lo, theta_hi = float(theta[0]), float(theta[-1])
    # tiny slack, here and on the length: windows often come from theta -> r
    if theta_lo < _MIN_WINDOW_THETA * (1.0 - 1e-9):
        raise FitWindowError(
            f"window starts at theta = {theta_lo:.3g} < {_MIN_WINDOW_THETA}; "
            "not in the deep oscillatory regime"
        )
    if theta_lo <= ch.nu_tilde:
        raise FitWindowError(
            f"window starts at theta = {theta_lo:.3g}, at or inside the "
            f"turning point theta = nu_tilde = {ch.nu_tilde:.3g}; the fit "
            "basis needs theta_lo > nu_tilde"
        )
    if theta_hi < (theta_lo + 2.0 * math.pi) * (1.0 - 1e-9):
        raise FitWindowError(f"window spans {(theta_hi - theta_lo) / (2 * math.pi):.2f}"
                             " oscillation periods (< 1)")
    u = r ** (-ch.mu / 4.0) * f
    t, a = _kummer_series(ch.nu_tilde, theta_lo)
    s = (theta_lo / theta) ** 2
    big_y = np.polyval(t[::-1], s)
    odd = np.arange(1, 2 * len(a) - 1, 2)    # 2k - 1 for k >= 1
    phi = theta - theta * s * np.polyval((np.array(a[1:]) / odd)[::-1], s)
    # the state at the first sample; u' = du/dtheta is formed from f', not
    # f'/f, since the sample may sit at a node of f
    r0, u0, y0 = float(r[0]), float(u[0]), float(big_y[0])
    du0 = (r0 ** (1.0 - ch.mu / 4.0) / (ch.sigma * theta_lo)
           * (float(df[0]) - ch.mu * float(f[0]) / (4.0 * r0)))
    j = np.arange(len(t))
    g = -float(np.dot(j * t, s[0] ** j)) / (theta_lo * y0)    # Y'/(2Y)
    sin_part, cos_part = u0 / math.sqrt(y0), math.sqrt(y0) * (du0 - g * u0)
    amplitude = math.hypot(sin_part, cos_part)
    if not 0.0 < amplitude < math.inf:
        raise FitWindowError(f"window starts at a state of amplitude {amplitude:.3g}")
    phase = reduce_angle(math.atan2(sin_part, cos_part) - float(phi[0]))
    # in units of the amplitude, so that squaring neither under- nor overflows
    residual = u / amplitude - np.sqrt(big_y) * np.sin(phi + phase)
    rms = float(np.sqrt(np.mean(residual * residual))) * amplitude
    if not (rms <= _FIT_TOL * amplitude):
        raise TailFitError(f"fit residual rms {rms:.3g} exceeds {_FIT_TOL:g} x "
                           f"amplitude ({amplitude:.3g})")
    # det = -1: the singular values have product 1 and squares summing to the
    # squared Frobenius norm 2n, so cond = n + sqrt(n^2 - 1), n >= 1
    n = max(0.5 * (y0 * (1.0 + g * g) + 1.0 / y0), 1.0)
    return TailFit(
        phase_amplitude=PhaseAmplitude(amplitude_C=amplitude, phase_D=phase),
        residual_rms=rms, r_lo=r0, r_hi=float(r[-1]), theta_lo=theta_lo,
        theta_hi=theta_hi, n_points=r.size,
        condition_number=n + math.sqrt(n * n - 1.0))


def solve_channel(ch: Channel) -> tuple[RadialSolutionSample, TailFit]:
    """Run the full pipeline for one channel with the default policies.

    Seeds at :func:`default_match_radius`. Where the seed lies below
    theta = 0.95 nu_tilde, the forbidden zone up to there is crossed by a
    Riccati march of W = r f'/f and log f, and the linear march restarts
    from f = exp(log f), f' = W f/r; otherwise the linear march starts at
    the seed. It lands on the start of the fit window from
    :func:`default_theta_window`, where (C, D) are matched, and records the
    window to its end. Both marches use :func:`default_rtol` of the window
    end, and the returned sample's ``n_steps``, ``n_rejected`` and
    ``max_error_estimate`` cover both.
    """
    r0 = default_match_radius(ch)
    theta_lo, theta_max = default_theta_window(ch)
    seed = frobenius_seed(ch, r0)
    r_window = (_radius_at(ch, theta_lo), _radius_at(ch, theta_max))
    if not (math.isfinite(r_window[1]) and r_window[0] > r0):
        raise ValueError(
            f"oscillation window theta in [{theta_lo:g}, {theta_max:g}] maps "
            "outside the representable radial range for this channel "
            "(nu_tilde and mu too extreme for the numerical route)"
        )
    tol = default_rtol(theta_max)
    start, n_steps, n_rej, max_err = seed, 0, 0, 0.0
    theta_m = _RICCATI_END * ch.nu_tilde
    if theta_m > ch.b * r0 ** ch.sigma:
        r_m = _radius_at(ch, theta_m)
        w, log_f, n_steps, n_rej, max_err = _riccati_march(ch, seed, r_m, tol)
        try:
            f_m = math.exp(log_f)
        except OverflowError:
            f_m = math.inf
        fp_m = w * f_m / r_m
        if not (math.isfinite(f_m) and math.isfinite(fp_m)):
            raise IntegrationError(
                f"state became non-finite: log f = {log_f:.4g}", r_m)
        # the restart state takes the seed's place as the linear march's start
        start = replace(seed, match_radius=r_m, seed_value=f_m,
                        seed_derivative=fp_m)
    sample = integrate_radial(ch, start, r_window, tol=tol)
    sample = replace(
        sample, n_steps=n_steps + sample.n_steps,
        n_rejected=n_rej + sample.n_rejected,
        max_error_estimate=max(max_err, sample.max_error_estimate))
    fit = extract_phase_amplitude(ch, sample)
    return sample, fit


def circular_difference(a: float, b: float) -> float:
    """Signed difference a - b reduced to (-pi, pi]."""
    return reduce_angle(a - b)
