"""Independent numerical pipeline for the zero-energy radial equation.

The route is deliberately disjoint from :mod:`zescat.closedform`:

1. seed the regular solution at a small radius r0 with a Frobenius series
   f = r^(nu+1/2) sum_k c_k r^(k(2-mu)), c_0 = 1, whose recurrence

       c_k = -alpha c_{k-1} / (k(2-mu) (k(2-mu) + 2 nu))

   follows from substituting the series into the radial equation,
2. integrate outward in r with an adaptive Dormand-Prince 5(4) pair,
3. extract the tail amplitude C and phase D by linear least squares
   against sinusoids of the known oscillation variable theta = b r^sigma.

The fit model is sin(theta) and cos(theta) times 1, 1/theta, ...,
1/theta^J (J = 5). The inverse-power columns soak up the slow
O(nu_tilde^2/theta) approach of the tail to its limiting sinusoid, which
is what makes the extraction accurate at finite radius even for large
nu_tilde; (C, D) are read off the undamped pair. The default fit window
[theta_lo, 2 theta_lo] with theta_lo = max(50, nu_tilde^2) keeps that
residual phase error around 1e-6, far inside the 1e-4 comparison
tolerance. The price is a march over about nu_tilde^2/(2 pi) periods:
2,588,792 integrator steps for the hardest sweep channel (d = 5,
mu = 1.9, alpha = 0.5, l = 6, nu_tilde = 150).

Channels are independent pure computations and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_MIN_WINDOW_THETA = 50.0
_DAMPED_ORDERS = 5
_FIT_TOL = 1e-5
_POINTS_CAP = 150_000


class IntegrationError(RuntimeError):
    """Adaptive integration failed; ``radius`` records where."""

    def __init__(self, message: str, radius: float):
        super().__init__(f"{message} (at r = {radius:.6g})")
        self.radius = radius


class FitWindowError(ValueError):
    """The requested fit window cannot support a meaningful fit."""


class TailFitError(RuntimeError):
    """The tail fit converged but misses its residual tolerance."""


def _theta_of(ch: Channel, r):
    return ch.b * np.asarray(r, dtype=float) ** ch.sigma


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
    """Integration output on a strictly increasing grid, plus stats."""

    r: np.ndarray
    f: np.ndarray
    df: np.ndarray
    n_steps: int
    n_rejected: int
    max_error_estimate: float


@dataclass(frozen=True, eq=False)
class TailFit:
    """Least-squares tail extraction with its quality diagnostics."""

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
    cancellation, which is what matters for mu close to 2)."""
    r0 = min(1e-2, (0.1 / ch.alpha) ** (1.0 / (2.0 - ch.mu)),
             (12.0 / ch.b) ** (1.0 / ch.sigma))
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

    Starts at max(50, nu_tilde^2) so the damped-sinusoid fit converges,
    and in any case a factor 5 beyond the seed position (for mu close to 2
    the seed itself sits at theta of order 1/(2-mu)); spans a factor 2.
    """
    theta_seed = ch.b * default_match_radius(ch) ** ch.sigma
    theta_lo = max(_MIN_WINDOW_THETA, ch.nu_tilde ** 2, 5.0 * theta_seed)
    return theta_lo, max(300.0, 2.0 * theta_lo)


def default_rtol(theta_max: float) -> float:
    """Integrator tolerance tightened with the span, so that per-step phase
    errors cannot accumulate past ~1e-5 over theta_max radians."""
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


def _sample_grid(ch: Channel, r0: float,
                 theta_window: tuple[float, float]) -> np.ndarray:
    """Output grid: the seed radius r0, then the fit window, uniform in
    theta, and a densified last-five-periods block (>= 40 points per period
    near r_max). Nothing is sampled between r0 and the window, so the
    window starts at ``grid[1]``."""
    theta_lo, theta_max = theta_window
    if not (math.isfinite(_radius_at(ch, theta_max))
            and _radius_at(ch, theta_lo) > r0):
        raise ValueError(
            f"oscillation window theta in [{theta_lo:g}, {theta_max:g}] maps "
            "outside the representable radial range for this channel "
            "(nu_tilde and mu too extreme for the numerical route)"
        )
    n_periods = (theta_max - theta_lo) / (2.0 * math.pi)
    per_period = min(40.0, max(6.0, _POINTS_CAP / n_periods))
    n_window = max(int(n_periods * per_period), 240)
    window_theta = np.linspace(theta_lo, theta_max, n_window)
    tail_theta = np.linspace(theta_max - 10.0 * math.pi, theta_max, 241)
    theta = np.concatenate([window_theta, tail_theta])
    radii = (theta / ch.b) ** (1.0 / ch.sigma)
    return np.unique(np.concatenate([[r0], radii]))


def integrate_radial(ch: Channel, seed: FrobeniusSeed, r_grid: np.ndarray,
                     tol: float) -> RadialSolutionSample:
    """Integrate the radial equation outward from the seed.

    The equation

        f'' = ((nu^2 - 1/4)/r^2 - alpha r^(-mu)) f

    is marched with a Dormand-Prince 5(4) embedded pair and PI step
    control, clamping steps onto the output radii.

    Parameters
    ----------
    ch : Channel
        Channel constants.
    seed : FrobeniusSeed
        Starting state at ``seed.match_radius``.
    r_grid : numpy.ndarray
        Strictly increasing output radii starting at the match radius;
        :func:`solve_channel` passes the grid of ``_sample_grid``. The
        integration ends at ``r_grid[-1]``.
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
        ``tol`` below 2**-52 or not finite, or a malformed ``r_grid``.
    IntegrationError
        Non-finite seed state, a step size that underflows the radius, or
        a state that stays non-finite however small the step (f outgrew
        the double range); ``radius`` records where.
    """
    if not (math.isfinite(tol) and tol >= _MIN_RTOL):
        raise ValueError(f"tol must be finite and >= 2**-52, got {tol!r}")
    r_grid = np.ascontiguousarray(r_grid, dtype=float)
    if (r_grid.ndim != 1 or r_grid.size < 2
            or r_grid[0] != seed.match_radius
            or np.any(np.diff(r_grid) <= 0.0)):
        raise ValueError("r_grid must be 1-D, strictly increasing and start "
                         "at the seed match radius")
    r = float(seed.match_radius)
    f = float(seed.seed_value)
    fp = float(seed.seed_derivative)
    if not (math.isfinite(f) and math.isfinite(fp)):
        # the march writes only this state and accepted states it has
        # checked, so this is the one place a non-finite value can enter
        raise IntegrationError("seed state is non-finite", r)

    n_out = r_grid.shape[0]
    out_f = np.empty(n_out)
    out_fp = np.empty(n_out)
    out_f[0] = f
    out_fp[0] = fp
    # Python floats throughout: numpy scalar arithmetic is several times
    # slower and gives the same IEEE results.
    grid = r_grid.item
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

    j = 1
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

    return RadialSolutionSample(
        r=r_grid, f=out_f, df=out_fp,
        n_steps=n_steps, n_rejected=n_rej, max_error_estimate=max_err,
    )


def extract_phase_amplitude(ch: Channel, sample: RadialSolutionSample,
                            window: tuple[float, float]) -> TailFit:
    """Fit r^(-mu/4) f against damped sinusoids of theta = b r^sigma.

    Ordinary least squares on the columns sin(theta) w^j, cos(theta) w^j,
    j = 0..5, w = theta_lo/theta; the frequency is fixed by the
    channel. The amplitude and phase come from the undamped pair:
    C = hypot(A, B), D = atan2(B, A) reduced to (-pi, pi].

    Raises
    ------
    FitWindowError
        Degenerate window (fewer than 10 points or under 2 oscillation
        periods), window outside the deep oscillatory regime
        (theta_lo < 50), or a rank-deficient design.
    TailFitError
        Residual RMS above 1e-5 times the fitted amplitude.
    """
    r_lo, r_hi = float(window[0]), float(window[1])
    if not (0.0 < r_lo < r_hi):
        raise FitWindowError(f"invalid window {window!r}")
    theta_lo = float(_theta_of(ch, r_lo))
    # tiny slack: r_lo is often produced by the inverse map theta -> r
    if theta_lo < _MIN_WINDOW_THETA * (1.0 - 1e-9):
        raise FitWindowError(
            f"window starts at theta = {theta_lo:.3g} < {_MIN_WINDOW_THETA}; "
            "not in the deep oscillatory regime"
        )
    mask = (sample.r >= r_lo) & (sample.r <= r_hi)
    n_pts = int(np.count_nonzero(mask))
    r = sample.r[mask]
    if n_pts < 10:
        raise FitWindowError(f"window holds only {n_pts} sample points (< 10)")
    theta = _theta_of(ch, r)
    theta_hi = float(theta[-1])
    if theta_hi - theta_lo < 4.0 * math.pi:
        raise FitWindowError(
            f"window spans {(theta_hi - theta_lo) / (2 * math.pi):.2f} "
            "oscillation periods (< 2)"
        )
    y = r ** (-ch.mu / 4.0) * sample.f[mask]

    w = theta[0] / theta
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    cols = []
    for j in range(_DAMPED_ORDERS + 1):
        wj = w ** j
        cols.append(sin_t * wj)
        cols.append(cos_t * wj)
    design = np.stack(cols, axis=1)
    norms = np.sqrt(np.mean(design * design, axis=0))
    y_scale = float(np.max(np.abs(y)))
    if y_scale == 0.0:
        raise FitWindowError("window contains an identically zero solution")
    # fit and residual in units of y_scale, so that neither squaring the
    # residual nor the design product under- or overflows at any amplitude
    y = y / y_scale
    coef, _, rank, sv = np.linalg.lstsq(design / norms, y, rcond=None)
    if rank < design.shape[1]:
        raise FitWindowError("rank-deficient least-squares design")
    coef = coef / norms
    residual = y - design @ coef
    rms = float(np.sqrt(np.mean(residual * residual))) * y_scale
    coef = coef * y_scale
    amplitude = float(np.hypot(coef[0], coef[1]))
    phase = reduce_angle(math.atan2(coef[1], coef[0]))
    if not (rms <= _FIT_TOL * amplitude):
        raise TailFitError(
            f"fit residual rms {rms:.3g} exceeds {_FIT_TOL:g} x amplitude "
            f"({amplitude:.3g})"
        )
    return TailFit(
        phase_amplitude=PhaseAmplitude(amplitude_C=amplitude, phase_D=phase),
        residual_rms=rms,
        r_lo=float(r[0]), r_hi=float(r[-1]),
        theta_lo=theta_lo, theta_hi=theta_hi,
        n_points=n_pts,
        condition_number=float(sv[0] / sv[-1]),
    )


def solve_channel(ch: Channel, rtol: float | None = None,
                  ) -> tuple[RadialSolutionSample, TailFit]:
    """Run the full pipeline for one channel with the default policies.

    Seeds at :func:`default_match_radius`, integrates to the end of the
    fit window from :func:`default_theta_window`, and extracts (C, D). The
    integrator tolerance defaults to :func:`default_rtol` of the window
    end.
    """
    window = default_theta_window(ch)
    if rtol is None:
        rtol = default_rtol(window[1])
    r0 = default_match_radius(ch)
    seed = frobenius_seed(ch, r0)
    grid = _sample_grid(ch, r0, window)
    sample = integrate_radial(ch, seed, grid, tol=rtol)
    fit = extract_phase_amplitude(ch, sample, (grid[1], grid[-1]))
    return sample, fit


def circular_difference(a: float, b: float) -> float:
    """Signed difference a - b reduced to (-pi, pi]."""
    return reduce_angle(a - b)
