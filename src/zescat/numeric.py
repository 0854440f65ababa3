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
1/theta^J (default J = 5). The inverse-power columns soak up the slow
O(nu_tilde^2/theta) approach of the tail to its limiting sinusoid, which
is what makes the extraction accurate at finite radius even for large
nu_tilde; (C, D) are read off the undamped pair. The default fit window
[theta_lo, 2 theta_lo] with theta_lo = max(50, nu_tilde^2) keeps that
residual phase error around 1e-6, far inside the 1e-4 comparison
tolerance. The price is a march over about nu_tilde^2/(2 pi) periods:
2,589,392 integrator steps for the hardest sweep channel (d = 5,
mu = 1.9, alpha = 0.5, l = 6, nu_tilde = 150).

Channels are independent pure computations and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    DOPRI_NONFINITE,
    DOPRI_STEP_UNDERFLOW,
    dopri5_radial_kernel,
)
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
_DEFAULT_SEED_TOL = 1e-14
_DEFAULT_RTOL = 1e-10
_MIN_WINDOW_THETA = 50.0
_DEFAULT_DAMPED_ORDERS = 5
_DEFAULT_FIT_TOL = 1e-5
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
    """Truncated origin series and the state (f, f') it implies at r0."""

    coefficients: np.ndarray
    truncation_order: int
    match_radius: float
    seed_value: float
    seed_derivative: float
    nu: float
    exponent_step: float

    def __post_init__(self):
        if self.coefficients[0] != 1.0:
            raise ValueError("Frobenius series must start with c_0 = 1")

    def evaluate(self, r):
        """Series value f(r); accurate for r up to the match radius."""
        arr = np.asarray(r, dtype=float)
        x = arr ** self.exponent_step
        acc = np.zeros_like(arr)
        for c in self.coefficients[::-1]:
            acc = acc * x + c
        val = arr ** (self.nu + 0.5) * acc
        return float(val) if arr.ndim == 0 else val


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
            "this channel (mu too close to 2 for the numerical route)"
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


def frobenius_seed(ch: Channel, r0: float, tol: float = _DEFAULT_SEED_TOL) -> FrobeniusSeed:
    """Seed the regular solution at r0 from the origin series.

    Parameters
    ----------
    ch : Channel
        Channel constants.
    r0 : float
        Match radius, must satisfy alpha r0^(2-mu) < 1/2 so the series
        converges fast.
    tol : float
        Truncation threshold on the last retained term of the normalized
        series (default 1e-14).

    Returns
    -------
    FrobeniusSeed
        Coefficients c_0..c_K and the seeded values f(r0), f'(r0).
    """
    if not (math.isfinite(r0) and r0 > 0.0):
        raise ValueError(f"r0 must be finite and > 0, got {r0!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    alpha = ch.alpha
    step = 2.0 - ch.mu
    x = alpha * r0 ** step
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
    coeffs = [1.0]
    x_pow = r0 ** step
    c = 1.0
    term = 1.0
    series_sum = 1.0            # sum c_k r0^(k(2-mu))
    deriv_sum = ch.nu + 0.5     # sum c_k (nu + 1/2 + k(2-mu)) r0^(k(2-mu))
    order = 0
    for k in range(1, _MAX_SERIES_ORDER + 1):
        c = -alpha * c / (k * step * (k * step + 2.0 * ch.nu))
        coeffs.append(c)
        term = c * x_pow ** k
        series_sum += term
        deriv_sum += term * (ch.nu + 0.5 + k * step)
        order = k
        if abs(term) <= tol:
            break
    else:
        raise ValueError(
            f"origin series did not reach |term| <= {tol:g} within "
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
        coefficients=np.array(coeffs),
        truncation_order=order,
        match_radius=r0,
        seed_value=seed_value,
        seed_derivative=seed_derivative,
        nu=ch.nu,
        exponent_step=step,
    )


def _sample_grid(ch: Channel, r0: float,
                 theta_window: tuple[float, float]) -> np.ndarray:
    """Output grid: log-spaced run-up, uniform-in-theta fit window, and a
    densified last-five-periods block (>= 40 points per period near r_max)."""
    theta_lo, theta_max = theta_window
    r_lo = _radius_at(ch, theta_lo)
    if not (math.isfinite(_radius_at(ch, theta_max)) and r_lo > r0):
        raise ValueError(
            f"oscillation window theta in [{theta_lo:g}, {theta_max:g}] maps "
            "outside the representable radial range for this channel "
            "(nu_tilde and mu too extreme for the numerical route)"
        )
    inner = np.geomspace(r0, r_lo, 201)[:-1]
    n_periods = (theta_max - theta_lo) / (2.0 * math.pi)
    per_period = min(40.0, max(6.0, _POINTS_CAP / n_periods))
    n_window = max(int(n_periods * per_period), 240)
    window_theta = np.linspace(theta_lo, theta_max, n_window)
    tail_theta = np.linspace(theta_max - 10.0 * math.pi, theta_max, 241)
    theta = np.concatenate([window_theta, tail_theta])
    radii = (theta / ch.b) ** (1.0 / ch.sigma)
    return np.unique(np.concatenate([[r0], inner, radii]))


def integrate_radial(ch: Channel, seed: FrobeniusSeed, r_grid: np.ndarray,
                     tol: float | None = None) -> RadialSolutionSample:
    """Integrate the radial equation outward from the seed.

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
    tol : float, optional
        Relative local-error tolerance per step (default 1e-10). The error
        is measured against the local oscillation envelope |f| + |f'|/w,
        w = sqrt(|equation coefficient|), so the control stays meaningful
        over the huge dynamic range of f. There is no absolute floor: any
        fixed one would swamp the tiny values of f near the origin and
        silently disable error control there.

    Returns
    -------
    RadialSolutionSample
    """
    if tol is None:
        tol = _DEFAULT_RTOL
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    r_grid = np.ascontiguousarray(r_grid, dtype=float)
    if (r_grid.ndim != 1 or r_grid.size < 2
            or r_grid[0] != seed.match_radius
            or np.any(np.diff(r_grid) <= 0.0)):
        raise ValueError("r_grid must be 1-D, strictly increasing and start "
                         "at the seed match radius")
    # overflow is detected by the kernel and reported below
    with np.errstate(over="ignore", invalid="ignore"):
        f, df, status, n_steps, n_rej, max_err, r_last = dopri5_radial_kernel(
            ch.nu, ch.mu, ch.alpha, seed.match_radius,
            seed.seed_value, seed.seed_derivative, r_grid, tol,
        )
    if status == DOPRI_STEP_UNDERFLOW:
        raise IntegrationError("step size underflow", r_last)
    if status == DOPRI_NONFINITE:
        raise IntegrationError("state became non-finite", r_last)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(df))):
        raise IntegrationError("non-finite values in output", r_last)
    return RadialSolutionSample(
        r=r_grid, f=f, df=df,
        n_steps=int(n_steps), n_rejected=int(n_rej),
        max_error_estimate=float(max_err),
    )


def extract_phase_amplitude(ch: Channel, sample: RadialSolutionSample,
                            window: tuple[float, float],
                            n_damped: int = _DEFAULT_DAMPED_ORDERS,
                            fit_tolerance: float = _DEFAULT_FIT_TOL) -> TailFit:
    """Fit r^(-mu/4) f against damped sinusoids of theta = b r^sigma.

    Ordinary least squares on the columns sin(theta) w^j, cos(theta) w^j,
    j = 0..n_damped, w = theta_lo/theta; the frequency is fixed by the
    channel. The amplitude and phase come from the undamped pair:
    C = hypot(A, B), D = atan2(B, A) reduced to (-pi, pi].

    Raises
    ------
    FitWindowError
        Degenerate window (fewer than 10 points or under 2 oscillation
        periods), window outside the deep oscillatory regime
        (theta_lo < 50), or a rank-deficient design.
    TailFitError
        Residual RMS above ``fit_tolerance`` times the fitted amplitude.
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
    for j in range(n_damped + 1):
        wj = w ** j
        cols.append(sin_t * wj)
        cols.append(cos_t * wj)
    design = np.stack(cols, axis=1)
    norms = np.sqrt(np.mean(design * design, axis=0))
    y_scale = float(np.max(np.abs(y)))
    if y_scale == 0.0:
        raise FitWindowError("window contains an identically zero solution")
    coef, _, rank, sv = np.linalg.lstsq(design / norms, y / y_scale, rcond=None)
    if rank < design.shape[1]:
        raise FitWindowError("rank-deficient least-squares design")
    coef = coef / norms * y_scale
    amplitude = float(np.hypot(coef[0], coef[1]))
    phase = reduce_angle(math.atan2(coef[1], coef[0]))
    # an rms that overflows fails the tolerance test below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = y - design @ coef
        rms = float(np.sqrt(np.mean(residual * residual)))
    if not (rms <= fit_tolerance * amplitude):
        raise TailFitError(
            f"fit residual rms {rms:.3g} exceeds {fit_tolerance:g} x amplitude "
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
    theta_lo, theta_max = default_theta_window(ch)
    if rtol is None:
        rtol = default_rtol(theta_max)
    r0 = default_match_radius(ch)
    seed = frobenius_seed(ch, r0)
    grid = _sample_grid(ch, r0, (theta_lo, theta_max))
    sample = integrate_radial(ch, seed, grid, tol=rtol)
    fit = extract_phase_amplitude(ch, sample, (_radius_at(ch, theta_lo), grid[-1]))
    return sample, fit


def circular_difference(a: float, b: float) -> float:
    """Signed difference a - b reduced to (-pi, pi]."""
    return reduce_angle(a - b)
