"""Numerical pipeline: origin series, adaptive integration, tail fit."""

import ast
import dataclasses
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zescat import (
    Channel,
    FitWindowError,
    IntegrationError,
    PotentialParams,
    RadialSolutionSample,
    TailFitError,
    circular_difference,
    closed_form_amplitude,
    closed_form_f,
    closed_form_phase,
    extract_phase_amplitude,
    frobenius_seed,
    integrate_radial,
    make_channel,
    numeric,
    solve_channel,
)
from zescat.numeric import (
    _kummer_series,
    _radius_at,
    _riccati_march,
    default_match_radius,
    default_rtol,
    default_theta_window,
)

J1_AT_2 = 0.57672480775687339  # mpmath, 50 digits


def _channel(d, mu, alpha, l):
    return make_channel(PotentialParams(d=d, mu=mu, alpha=alpha), l)


class TestFrobeniusSeed:
    def test_first_coefficient_formula(self):
        # c_1 = -alpha / ((2-mu)(2-mu+2nu)); equals the r^(2-mu) series
        # coefficient -alpha/((2-mu)^2 (nu_tilde+1)) of the closed form.
        # Read off the seed at alpha r0^(2-mu) = 1e-6, where c_2 shifts it
        # by about 1e-6 relative.
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 0), (2, 0.4, 3.0, 2), (5, 1.6, 0.3, 4)]:
            ch = _channel(d, mu, alpha, l)
            r0 = (1e-6 / alpha) ** (1.0 / (2.0 - mu))
            seed = frobenius_seed(ch, r0)
            first = (seed.seed_value / r0 ** (ch.nu + 0.5) - 1.0) / r0 ** (2.0 - mu)
            c1 = -alpha / ((2.0 - mu) * (2.0 - mu + 2.0 * ch.nu))
            via_bessel_series = -alpha / ((2.0 - mu) ** 2 * (ch.nu_tilde + 1.0))
            assert first == pytest.approx(c1, rel=1e-5)
            assert c1 == pytest.approx(via_bessel_series, rel=1e-13)

    def test_d3_mu1_value(self):
        # f = r sum_k (-r)^k / (k! (k+1)!) and f' = sum_k (-r)^k / k!^2
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = 1e-2
        seed = frobenius_seed(ch, r0)
        f = r0 * math.fsum((-r0) ** k / (math.factorial(k) * math.factorial(k + 1))
                           for k in range(12))
        fp = math.fsum((-r0) ** k / math.factorial(k) ** 2 for k in range(12))
        assert seed.seed_value == pytest.approx(f, rel=1e-15)
        assert seed.seed_derivative == pytest.approx(fp, rel=1e-15)

    def test_zero_coupling_gives_pure_power(self):
        # validation bypass: alpha = 0 only through a hand-built channel
        ch = Channel(d=3, mu=1.0, alpha=0.0, l=0)
        seed = frobenius_seed(ch, 1e-2)
        assert seed.truncation_order == 1
        assert seed.seed_value == pytest.approx(1e-2, rel=1e-15)
        assert seed.seed_derivative == pytest.approx(1.0, rel=1e-15)

    def test_truncation_criterion(self):
        # |t_k| = (x/(2-mu)^2)^k / (k! (nu_tilde+1)_k), x = alpha r0^(2-mu):
        # the series stops at the first term at or below 1e-14
        ch = _channel(4, 1.2, 2.0, 1)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        step = 2.0 - ch.mu
        x = ch.alpha * r0 ** step

        def log_term(k):
            return (k * math.log(x / step ** 2) - math.lgamma(k + 1.0)
                    - math.lgamma(ch.nu_tilde + 1.0 + k) + math.lgamma(ch.nu_tilde + 1.0))

        k = seed.truncation_order
        assert log_term(k) <= math.log(1e-14) + 1e-9
        assert log_term(k - 1) > math.log(1e-14)

    def test_agrees_with_closed_form_near_origin(self):
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 0), (2, 0.5, 4.0, 2), (5, 1.5, 1.0, 3)]:
            ch = _channel(d, mu, alpha, l)
            r0 = default_match_radius(ch)
            for frac in (1.0, 0.6, 0.25, 0.05):
                seed = frobenius_seed(ch, frac * r0)
                assert seed.seed_value == pytest.approx(closed_form_f(ch, frac * r0),
                                                        rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e60, 1e100, 1e160])
    def test_large_coupling_agrees_with_closed_form(self, alpha):
        # the bare coefficients c_k ~ alpha^k overflow doubles here
        for l in (0, 1):
            ch = _channel(3, 0.3, alpha, l)
            _, fit = solve_channel(ch)
            assert abs(circular_difference(fit.phase_amplitude.phase_D,
                                           closed_form_phase(ch))) <= 1e-5
            assert fit.phase_amplitude.amplitude_C == pytest.approx(
                closed_form_amplitude(ch), rel=1e-5)

    def test_domain_errors(self):
        ch = _channel(3, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            frobenius_seed(ch, 0.0)
        with pytest.raises(ValueError):
            frobenius_seed(ch, -1e-3)
        with pytest.raises(ValueError):
            frobenius_seed(ch, 1.0)  # alpha r0^(2-mu) = 1 >= 1/2


class TestIntegrateRadial:
    def test_free_equation_is_linear(self):
        # alpha = 0, nu = 1/2: the equation is f'' = 0 and f(r) = r
        ch = Channel(d=3, mu=1.0, alpha=0.0, l=0)
        seed = frobenius_seed(ch, 1e-2)
        # the steps grow fivefold, so the last one starts below r_hi/2; for
        # the second r_hi, r + (r_hi - r) rounds one ulp above it
        for r_hi in (50.0, float.fromhex("0x1.dbcfd25396403p-1")):
            sample = integrate_radial(ch, seed, (1e-2, r_hi), tol=1e-10)
            assert sample.r.size > 1
            assert sample.r[-1] == r_hi
            assert np.allclose(sample.f, sample.r, rtol=1e-10, atol=0.0)
            assert np.allclose(sample.df, 1.0, rtol=1e-10, atol=0.0)

    def test_matches_closed_form_at_one(self):
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        sample = integrate_radial(ch, seed, (r0, 1.0), tol=1e-12)
        assert sample.r[-1] == 1.0
        assert sample.f[-1] == pytest.approx(J1_AT_2, abs=1e-8)

    def test_tolerance_degrades_monotonically(self):
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        errs = []
        for tol in (1e-6, 1e-12):
            sample = integrate_radial(ch, seed, (r0, 1.0), tol=tol)
            errs.append(abs(sample.f[-1] - J1_AT_2))
        assert errs[0] > errs[1]

    def test_grid_and_stats(self):
        ch = _channel(2, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        r_window = (_radius_at(ch, 160.0), _radius_at(ch, 320.0))
        sample = integrate_radial(ch, seed, r_window, tol=1e-10)
        assert sample.r[0] == r_window[0] > r0
        assert sample.r[-1] == r_window[1]
        assert np.all(np.diff(sample.r) > 0.0)
        assert sample.n_steps > 0
        assert sample.max_error_estimate <= 1.0
        assert np.all(np.isfinite(sample.f))

    @pytest.mark.parametrize("d, mu, alpha, l", [(3, 1.0, 1.0, 1), (5, 1.9, 0.5, 2)])
    def test_sample_is_the_window_at_accepted_steps(self, d, mu, alpha, l):
        # the recorded radii start exactly at r_lo, rise strictly and end
        # exactly at r_hi, however the steps fall; a window from the match
        # radius ends there too
        ch = _channel(d, mu, alpha, l)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        theta_lo, theta_max = default_theta_window(ch)
        r_lo, r_hi = _radius_at(ch, theta_lo), _radius_at(ch, theta_max)
        for window in ((r_lo, r_hi), (r_lo, math.nextafter(r_lo, math.inf)),
                       (r0, r_lo)):
            sample = integrate_radial(ch, seed, window, tol=1e-10)
            assert sample.r[0] == window[0]
            assert np.all(np.diff(sample.r) > 0.0)
            assert sample.r[-1] == window[1]
            assert sample.r.shape == sample.f.shape == sample.df.shape

    def test_seed_recorded_only_from_match_radius(self):
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        sample = integrate_radial(ch, seed, (r0, 1.0), tol=1e-10)
        assert (sample.r[0], sample.f[0], sample.df[0]) == (
            r0, seed.seed_value, seed.seed_derivative)
        later = integrate_radial(ch, seed, (math.nextafter(r0, 1.0), 1.0), tol=1e-10)
        # the march lands on r_lo one ulp on and goes on at the step it had,
        # so the landing costs one step, not an underflowing step size
        assert later.r[0] == math.nextafter(r0, 1.0)
        assert later.n_steps == sample.n_steps + 1
        assert later.r[-1] == 1.0
        assert later.f[-1] == pytest.approx(sample.f[-1], rel=1e-12)

    def test_rejected_step_is_retried(self):
        # no sweep channel rejects a step at the default tolerance; this
        # march at 1e-14 rejects one, and still lands on both window ends
        # with C to rounding
        ch = _channel(3, 1.0, 1.0, 1)
        seed = frobenius_seed(ch, default_match_radius(ch))
        r_window = tuple(_radius_at(ch, theta) for theta in default_theta_window(ch))
        sample = integrate_radial(ch, seed, r_window, tol=1e-14)
        assert sample.n_rejected >= 1
        assert (sample.r[0], sample.r[-1]) == r_window
        fit = extract_phase_amplitude(ch, sample)
        assert fit.phase_amplitude.amplitude_C == pytest.approx(
            closed_form_amplitude(ch), rel=1e-12)

    def test_overflowing_solution_reports_radius(self):
        # a huge index makes the below-barrier growth overflow doubles
        ch = Channel(d=2, mu=1.0, alpha=1.0, l=500)
        seed = dataclasses.replace(
            frobenius_seed(_channel(3, 1.0, 1.0, 0), 1e-2),
            seed_value=1.0, seed_derivative=500.5 / 1e-2,
        )
        with pytest.raises(IntegrationError) as err:
            integrate_radial(ch, seed, (1e-2, 1e4), tol=1e-10)
        assert err.value.radius > 0.0

    def test_input_validation(self):
        ch = _channel(3, 1.0, 1.0, 0)
        seed = frobenius_seed(ch, 1e-2)
        with pytest.raises(ValueError, match="r_window"):  # below the match radius
            integrate_radial(ch, seed, (1e-3, 1.0), tol=1e-10)
        # a negative tolerance, and one below double rounding that the
        # step control could never meet
        for tol in (-1e-10, 1e-30):
            with pytest.raises(ValueError, match="tol"):
                integrate_radial(ch, seed, (1e-2, 1.0), tol=tol)
        with pytest.raises(ValueError, match="r_window"):  # empty window
            integrate_radial(ch, seed, (1e-2, 1e-2), tol=1e-10)
        # a hand-built seed is the one way a non-finite state gets in
        bad = dataclasses.replace(seed, seed_value=math.nan)
        with pytest.raises(IntegrationError, match="seed state"):
            integrate_radial(ch, bad, (1e-2, 1.0), tol=1e-10)

    @pytest.mark.parametrize("r_window", [
        (0.5, 0.1),              # r_lo > r_hi
        (1e-2, math.inf),        # non-finite r_hi
        (1e-2, math.nan),
    ])
    def test_malformed_window_rejected(self, r_window):
        ch = _channel(3, 1.0, 1.0, 0)
        seed = frobenius_seed(ch, 1e-2)
        with pytest.raises(ValueError, match="r_window"):
            integrate_radial(ch, seed, r_window, tol=1e-10)


# nu_tilde = 1/2, so q = 1 and the pure sinusoid is an exact solution of the
# fit model (validation bypass: mu = 0 only through a hand-built channel)
SINUSOID_CHANNEL = Channel(d=3, mu=0.0, alpha=1.0, l=0)


def _synthetic_sample(ch, amplitude, phase, theta_lo=60.0, periods=20, n=4000):
    theta = np.linspace(theta_lo, theta_lo + periods * 2.0 * math.pi, n)
    r = (theta / ch.b) ** (1.0 / ch.sigma)
    y = amplitude * np.sin(theta + phase)
    dy = amplitude * np.cos(theta + phase) * ch.sigma * theta / r    # dy/dr
    # f = r^(mu/4) y and f' = r^(mu/4) (y' + mu y/(4r))
    return RadialSolutionSample(r=r, f=r ** (ch.mu / 4.0) * y,
                                df=r ** (ch.mu / 4.0) * (dy + ch.mu * y / (4.0 * r)),
                                n_steps=0, n_rejected=0, max_error_estimate=0.0)


def _kummer_at(nu_tilde, theta):
    """Y, Phi and y = 1/Y with y', y'' at theta, summed term by term from
    the series scaled at theta_lo = theta."""
    t, a = _kummer_series(nu_tilde, theta)
    k = range(len(a))
    y = math.fsum(a)
    dy = math.fsum(-2 * j * a[j] for j in k) / theta
    d2y = math.fsum(2 * j * (2 * j + 1) * a[j] for j in k) / theta ** 2
    phi = theta - theta * math.fsum(a[j] / (2 * j - 1) for j in k if j > 0)
    return math.fsum(t), phi, y, dy, d2y


def _kummer_thetas(nu_tilde):
    return (max(20.0, 1.5 * nu_tilde), max(20.0, 5.0 * nu_tilde))


class TestKummerCoefficients:
    def test_leading_coefficients(self):
        # m_1 = c/2 and a_1 = -c/2, scaled by theta_lo^(-2)
        for nu_tilde in (0.0, 3.0, 150.0):
            theta_lo = max(20.0, 5.0 * nu_tilde)
            t, a = _kummer_series(nu_tilde, theta_lo)
            c = nu_tilde ** 2 - 0.25
            assert t[0] == a[0] == 1.0
            assert t[1] == pytest.approx(c / 2.0 / theta_lo ** 2, rel=1e-15)
            assert a[1] == pytest.approx(-c / 2.0 / theta_lo ** 2, rel=1e-15)

    def test_half_order_is_pure_sinusoid(self):
        # nu_tilde = 1/2: q = 1, so Y = 1 and Phi = theta exactly
        t, a = _kummer_series(0.5, 20.0)
        assert all(x == 0.0 for x in t[1:] + a[1:])
        assert _kummer_at(0.5, 20.0)[:2] == (1.0, 20.0)

    @pytest.mark.parametrize("nu_tilde", [0.0, 0.5, 12.0, 150.0, 2000.0])
    def test_defining_equation_residual(self, nu_tilde):
        # the nonlinear Kummer equation y^2 = q + (3/4)(y'/y)^2 - (1/2) y''/y
        # holds for y = 1/Y at 1.5 and 5 times the turning point
        for theta in _kummer_thetas(nu_tilde):
            _, _, y, dy, d2y = _kummer_at(nu_tilde, theta)
            q = 1.0 - (nu_tilde ** 2 - 0.25) / theta ** 2
            assert abs(y * y - q - 0.75 * (dy / y) ** 2 + 0.5 * d2y / y) <= 1e-12

    @pytest.mark.parametrize("nu_tilde", [0.5, 3.0, 12.0, 30.0, 150.0, 800.0])
    def test_matches_mpmath_bessel_modulus_and_phase(self, nu_tilde):
        # test-only oracle: u1 = sqrt(pi theta/2) J, u2 = sqrt(pi theta/2) Y_nu
        # have Wronskian 1, so Y = (pi theta/2)(J^2 + Y_nu^2), and their
        # phase tends to theta - (nu_tilde/2 + 1/4) pi
        mp = pytest.importorskip("mpmath")
        with mp.workdps(25):
            for theta in _kummer_thetas(nu_tilde):
                j, yn = mp.besselj(nu_tilde, theta), mp.bessely(nu_tilde, theta)
                env, phi = _kummer_at(nu_tilde, theta)[:2]
                env_ref = mp.pi * theta / 2 * (j * j + yn * yn)
                phi_ref = mp.atan2(yn, j) + (nu_tilde / 2 + 0.25) * mp.pi
                assert abs(env / env_ref - 1) <= 1e-14
                turns = mp.nint((phi - phi_ref) / (2 * mp.pi))
                assert abs(phi - phi_ref - 2 * mp.pi * turns) <= 1e-12


class TestExtractPhaseAmplitude:
    def test_exact_model_recovered(self):
        ch = SINUSOID_CHANNEL
        sample = _synthetic_sample(ch, 3.0, 0.7)
        fit = extract_phase_amplitude(ch, sample)
        assert fit.phase_amplitude.amplitude_C == pytest.approx(3.0, abs=1e-12)
        assert fit.phase_amplitude.phase_D == pytest.approx(0.7, abs=1e-12)
        assert fit.residual_rms < 1e-12
        # the squared residual must not overflow at a huge amplitude
        sample = _synthetic_sample(ch, 1e200, 0.7)
        fit = extract_phase_amplitude(ch, sample)
        assert fit.phase_amplitude.amplitude_C == pytest.approx(1e200, rel=1e-12)
        assert fit.phase_amplitude.phase_D == pytest.approx(0.7, abs=1e-12)
        assert fit.residual_rms < 1e-12 * 1e200

    def test_window_errors(self):
        ch = SINUSOID_CHANNEL
        sample = _synthetic_sample(ch, 1.0, 0.1)
        with pytest.raises(FitWindowError):  # not deep oscillatory
            extract_phase_amplitude(ch, _synthetic_sample(ch, 1.0, 0.1, theta_lo=10.0))
        with pytest.raises(FitWindowError):  # under one period
            extract_phase_amplitude(
                ch, _synthetic_sample(ch, 1.0, 0.1, periods=3.0 / (2.0 * math.pi)))
        sparse = RadialSolutionSample(
            r=sample.r[::800], f=sample.f[::800], df=sample.df[::800],
            n_steps=0, n_rejected=0, max_error_estimate=0.0)
        with pytest.raises(FitWindowError):  # fewer than 10 points
            extract_phase_amplitude(ch, sparse)
        zero = dataclasses.replace(sample, f=0.0 * sample.f, df=0.0 * sample.df)
        with pytest.raises(FitWindowError):  # the zero state fixes no tail
            extract_phase_amplitude(ch, zero)

    def test_residual_tolerance_enforced(self):
        ch = SINUSOID_CHANNEL
        sample = _synthetic_sample(ch, 1.0, 0.3)
        rng = np.random.default_rng(11)
        noisy = dataclasses.replace(sample, f=sample.f * (1.0 + 1e-3 * rng.standard_normal(sample.f.shape)))
        with pytest.raises(TailFitError):
            extract_phase_amplitude(ch, noisy)
        # ... and at a tiny amplitude, where the squared residual must not
        # underflow to a vacuous rms of 0
        tiny = dataclasses.replace(noisy, f=noisy.f * 1e-200, df=noisy.df * 1e-200)
        with pytest.raises(TailFitError):
            extract_phase_amplitude(ch, tiny)
        # noise well under the fixed 1e-5 tolerance still fits
        quiet = dataclasses.replace(sample, f=sample.f * (1.0 + 1e-7 * rng.standard_normal(sample.f.shape)))
        fit = extract_phase_amplitude(ch, quiet)
        assert fit.phase_amplitude.amplitude_C == pytest.approx(1.0, rel=1e-5)

    def test_derivative_error_enforced(self):
        # (C, D) come from the match's state (u, u'), so an f' off by 1e-4
        # moves them by about 1e-4 and the window's residual shows it
        ch = SINUSOID_CHANNEL
        sample = _synthetic_sample(ch, 1.0, 0.3)
        skewed = dataclasses.replace(sample, df=sample.df * (1.0 + 1e-4))
        with pytest.raises(TailFitError):
            extract_phase_amplitude(ch, skewed)

    def test_match_at_a_node(self):
        # a first sample at a node of f, f = 0 exactly: u' comes from f'
        # alone, so the match neither divides by zero nor warns
        ch = SINUSOID_CHANNEL
        sample = _synthetic_sample(ch, 2.0, math.pi - 60.0)
        f = sample.f.copy()
        assert abs(f[0]) < 1e-13
        f[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = extract_phase_amplitude(ch, dataclasses.replace(sample, f=f))
        assert fit.phase_amplitude.amplitude_C == pytest.approx(2.0, rel=1e-12)
        assert abs(circular_difference(fit.phase_amplitude.phase_D,
                                       math.pi - 60.0)) <= 1e-12


REFERENCE_CHANNELS = pytest.mark.parametrize("d, mu, alpha, l", [
    (3, 1.0, 1.0, 1),     # nu_tilde 3
    (4, 1.5, 0.5, 2),     # nu_tilde 12
    (5, 1.9, 0.5, 0),     # nu_tilde 30
])


def _window_fit(ch, window, tol):
    """Tail fit on the theta ``window`` after a march through the public
    stages."""
    r0 = default_match_radius(ch)
    r_window = tuple(_radius_at(ch, theta) for theta in window)
    sample = integrate_radial(ch, frobenius_seed(ch, r0), r_window, tol=tol)
    return extract_phase_amplitude(ch, sample)


def _assert_same_tail(fit, ref):
    c = ref.phase_amplitude.amplitude_C
    assert fit.phase_amplitude.amplitude_C == pytest.approx(c, rel=1e-8)
    assert abs(circular_difference(fit.phase_amplitude.phase_D,
                                   ref.phase_amplitude.phase_D)) <= 1e-8


class TestPipeline:
    def test_d2_phase_reaches_quarter_pi(self):
        ch = _channel(2, 1.0, 1.0, 0)
        _, fit = solve_channel(ch)
        assert abs(circular_difference(fit.phase_amplitude.phase_D, math.pi / 4)) <= 1e-4

    def test_d3_l1_phase(self):
        # nu = 3/2: D = -3 pi/2 + pi/4, i.e. 3 pi/4 after reduction
        ch = _channel(3, 1.0, 1.0, 1)
        _, fit = solve_channel(ch)
        assert abs(circular_difference(fit.phase_amplitude.phase_D, 3.0 * math.pi / 4)) <= 1e-4
        assert abs(circular_difference(fit.phase_amplitude.phase_D,
                                       closed_form_phase(ch))) <= 1e-4

    def test_amplitude_matches_closed_form(self):
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 0), (2, 0.5, 4.0, 1), (4, 1.5, 0.5, 2)]:
            ch = _channel(d, mu, alpha, l)
            _, fit = solve_channel(ch)
            assert fit.phase_amplitude.amplitude_C == pytest.approx(
                closed_form_amplitude(ch), rel=1e-4)

    def test_linearity_doubles_amplitude_keeps_phase(self):
        ch = _channel(3, 1.0, 1.0, 1)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        seed2 = dataclasses.replace(seed, seed_value=2.0 * seed.seed_value,
                                    seed_derivative=2.0 * seed.seed_derivative)
        r_window = tuple(_radius_at(ch, theta) for theta in default_theta_window(ch))
        fits = []
        for s in (seed, seed2):
            sample = integrate_radial(ch, s, r_window, tol=1e-11)
            fits.append(extract_phase_amplitude(ch, sample))
        c1, c2 = (f.phase_amplitude.amplitude_C for f in fits)
        d1, d2 = (f.phase_amplitude.phase_D for f in fits)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-10)
        assert abs(circular_difference(d1, d2)) <= 1e-10

    def test_window_shift_stability(self):
        # a match one period later, on a march through the public stages,
        # barely moves (C, D); the floor term covers the integration error
        # of the two marches, far above the match's residual
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 1), (2, 0.5, 4.0, 2)]:
            ch = _channel(d, mu, alpha, l)
            _, fit = solve_channel(ch)
            theta_lo = fit.theta_lo + 2.0 * math.pi
            window = (theta_lo, theta_lo + 2.0 * math.pi)
            fit2 = _window_fit(ch, window, tol=default_rtol(window[1]))
            c = fit.phase_amplitude.amplitude_C
            allowance = max(10.0 * fit.residual_rms, 1e-9 * c)
            assert abs(fit2.phase_amplitude.amplitude_C - c) <= allowance
            assert abs(circular_difference(fit2.phase_amplitude.phase_D,
                                           fit.phase_amplitude.phase_D)) * c <= allowance

    @REFERENCE_CHANNELS
    def test_far_window_reference_agrees(self, d, mu, alpha, l):
        # closed-form-free check of the Kummer basis: a march out to the far
        # window theta in [nu_tilde^2, 2 nu_tilde^2] (at least [50, 100]),
        # through the same public stages, must give the (C, D) of the
        # default window from 1.5 nu_tilde. A wrong a_k moves Phi by a
        # different amount in the two windows. The reference runs at
        # tol = 1e-12 so that its own integration error stays near 1e-10.
        ch = _channel(d, mu, alpha, l)
        _, fit = solve_channel(ch)
        theta_lo = max(50.0, ch.nu_tilde ** 2)
        far = _window_fit(ch, (theta_lo, 2.0 * theta_lo), tol=1e-12)
        assert far.theta_lo > fit.theta_hi     # the windows do not overlap
        _assert_same_tail(far, fit)

    @REFERENCE_CHANNELS
    def test_near_window_reference_agrees(self, d, mu, alpha, l):
        # the default window sits near the turning point, where the series
        # is least accurate; its (C, D) must match a fit on a later window
        # [5 nu_tilde, 10 nu_tilde] (at least [40, 80], past the default
        # window's end 20 + 2 pi) at tol = 1e-11
        ch = _channel(d, mu, alpha, l)
        _, fit = solve_channel(ch)
        theta_lo = max(40.0, 5.0 * ch.nu_tilde)
        ref = _window_fit(ch, (theta_lo, 2.0 * theta_lo), tol=1e-11)
        assert ref.theta_lo > fit.theta_hi     # the windows do not overlap
        _assert_same_tail(fit, ref)

    @REFERENCE_CHANNELS
    def test_condition_number_is_that_of_the_basis_matrix(self, d, mu, alpha, l):
        # numpy's cond is only the oracle: the basis matrix
        # [[u1, u2], [u1', u2']] at the match point, u1 = Y^(1/2) sin Phi and
        # u2 = Y^(1/2) cos Phi, with Y' = -y'/y^2 for y = 1/Y
        ch = _channel(d, mu, alpha, l)
        _, fit = solve_channel(ch)
        env, phi, y, dy, _ = _kummer_at(ch.nu_tilde, ch.b * fit.r_lo ** ch.sigma)
        g, root = -dy / (2.0 * y), math.sqrt(env)
        u1, u2 = root * math.sin(phi), root * math.cos(phi)
        basis = np.array([[u1, u2], [g * u1 + math.cos(phi) / root,
                                     g * u2 - math.sin(phi) / root]])
        assert fit.condition_number == pytest.approx(np.linalg.cond(basis),
                                                     rel=1e-12)

    @REFERENCE_CHANNELS
    def test_match_at_the_declared_window_start(self, d, mu, alpha, l):
        # the march lands on the window start, so the match radius is the
        # declared one and theta_lo is its theta, not the requested theta
        ch = _channel(d, mu, alpha, l)
        sample, fit = solve_channel(ch)
        assert fit.r_lo == sample.r[0] == _radius_at(ch, default_theta_window(ch)[0])
        assert fit.theta_lo == ch.b * fit.r_lo ** ch.sigma
        assert fit.theta_hi == ch.b * fit.r_hi ** ch.sigma

    @pytest.mark.parametrize("d, mu, alpha, l", [(2, 1.0, 0.5, 0), (2, 1.9, 1.0, 6)])
    def test_one_period_window_from_the_inverse_map(self, d, mu, alpha, l):
        # on these channels the round trip theta -> r -> theta leaves the
        # one-period window a few ulps short, which the length check allows
        ch = _channel(d, mu, alpha, l)
        theta_lo = default_theta_window(ch)[0]
        fit = _window_fit(ch, (theta_lo, theta_lo + 2.0 * math.pi), tol=1e-10)
        assert fit.theta_hi - fit.theta_lo < 2.0 * math.pi
        _, ref = solve_channel(ch)
        _assert_same_tail(fit, ref)

    def test_window_inside_turning_point_rejected(self):
        # nu_tilde = 30: a window from 0.9 nu_tilde clears the theta >= 20
        # floor but not the turning point, where the Kummer series stops
        # on terms that are not small
        ch = _channel(5, 1.9, 0.5, 0)
        theta_lo = 0.9 * ch.nu_tilde
        with pytest.raises(FitWindowError, match="turning point"):
            _window_fit(ch, (theta_lo, theta_lo + 8.0 * math.pi), tol=1e-10)

    def test_sample_density_near_endpoint(self):
        # the sample is the integrator's accepted steps, so this density
        # comes from the tolerance, not from an output grid
        ch = _channel(3, 1.0, 1.0, 0)
        sample, _ = solve_channel(ch)
        theta = ch.b * sample.r ** ch.sigma
        last_period = theta[theta >= theta[-1] - 2.0 * math.pi]
        assert last_period.size >= 40

    def test_mu_near_two_within_radial_envelope(self):
        # beyond the sweep grid but still representable in doubles
        for (d, mu, alpha, l) in [(2, 1.95, 1.0, 1), (3, 1.97, 2.0, 0)]:
            ch = _channel(d, mu, alpha, l)
            _, fit = solve_channel(ch)
            assert abs(circular_difference(fit.phase_amplitude.phase_D,
                                           closed_form_phase(ch))) <= 1e-4

    def test_mu_near_two_outside_envelope_fails_loudly(self):
        # the seed would need a radius below the double-precision range
        ch = _channel(2, 1.99, 1.0, 0)
        with pytest.raises(ValueError, match="mu too close to 2"):
            solve_channel(ch)

    def test_seed_cancellation_guard(self):
        # placing the seed deep into the oscillatory zone is refused: the
        # origin series would lose everything to cancellation there
        ch = _channel(2, 1.96, 1.0, 0)
        r0 = (20.0 / ch.b) ** (1.0 / ch.sigma)  # oscillation coordinate 20
        with pytest.raises(ValueError, match="cancellation"):
            frobenius_seed(ch, r0)


class TestRiccatiMarch:
    """The march of W = r f'/f and log f across the forbidden zone."""

    def test_zero_coupling_keeps_the_pure_power(self):
        # alpha = 0: f = r^(nu+1/2) exactly, so W = nu + 1/2 is a fixed
        # point and log f = (nu + 1/2) log r (validation bypass, as above)
        ch = Channel(d=3, mu=1.0, alpha=0.0, l=2)
        seed = frobenius_seed(ch, 1e-2)
        for r_end in (1e3, 1e12):
            w, log_f, n_steps, _, _ = _riccati_march(ch, seed, r_end, tol=1e-10)
            assert n_steps > 0
            assert w == pytest.approx(ch.nu + 0.5, abs=1e-13)
            assert log_f == pytest.approx((ch.nu + 0.5) * math.log(r_end), abs=1e-13)

    @REFERENCE_CHANNELS
    def test_matches_the_linear_march(self, d, mu, alpha, l):
        # closed-form-free: the linear march from the seed to the hand-over
        # radius, at tol = 1e-12 so that its own error stays near 1e-11,
        # gives the same (W, log f) as the Riccati march at solve_channel's
        # tolerance
        ch = _channel(d, mu, alpha, l)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        r_m = _radius_at(ch, 0.95 * ch.nu_tilde)
        tol = default_rtol(default_theta_window(ch)[1])
        w, log_f, _, _, _ = _riccati_march(ch, seed, r_m, tol)
        ref = integrate_radial(ch, seed, (r0, r_m), tol=1e-12)
        assert ref.r[-1] == r_m
        assert abs(w - ref.r[-1] * ref.df[-1] / ref.f[-1]) <= 1e-9
        assert abs(log_f - math.log(ref.f[-1])) <= 1e-9

    def test_no_forbidden_zone_keeps_the_linear_march(self):
        # nu = 0 (d = 2, l = 0): 0.95 nu_tilde = 0 lies below the seed, so
        # solve_channel runs the linear march from the seed alone
        ch = _channel(2, 0.3, 1.0, 0)
        window = default_theta_window(ch)
        r_window = tuple(_radius_at(ch, theta) for theta in window)
        seed = frobenius_seed(ch, default_match_radius(ch))
        ref = integrate_radial(ch, seed, r_window, tol=default_rtol(window[1]))
        sample, fit = solve_channel(ch)
        assert (sample.n_steps, sample.n_rejected) == (ref.n_steps, ref.n_rejected)
        assert np.array_equal(sample.f, ref.f)
        assert fit.phase_amplitude == extract_phase_amplitude(ch, ref).phase_amplitude

    @pytest.mark.parametrize("d, mu, alpha, l", [(3, 1.0, 1.0, 80), (3, 1.0, 4.0, 80)])
    def test_deep_forbidden_zone_amplitude(self, d, mu, alpha, l):
        # nu_tilde 161, past the sweep: the linear march from the seed alone
        # holds C to only about 1e-8 here, in some 30,000 steps
        ch = _channel(d, mu, alpha, l)
        sample, fit = solve_channel(ch)
        pa = fit.phase_amplitude
        assert abs(circular_difference(pa.phase_D, closed_form_phase(ch))) <= 1e-9
        assert abs(pa.amplitude_C / closed_form_amplitude(ch) - 1.0) <= 1e-9
        assert sample.n_steps <= 6_000

    @pytest.mark.parametrize("d, mu, alpha, l", [(3, 1.0, 0.5, 80), (4, 1.0, 1.0, 100)])
    def test_amplitude_beyond_double_range_fails_at_hand_over(self, d, mu, alpha, l):
        # log C = 716 and 873: f leaves the double range before the window,
        # which is reported as the documented integration failure at the
        # hand-over radius, not as a bare OverflowError
        ch = _channel(d, mu, alpha, l)
        with pytest.raises(IntegrationError, match="non-finite") as err:
            solve_channel(ch)
        assert err.value.radius == _radius_at(ch, 0.95 * ch.nu_tilde)


class TestAlphaScaling:
    """Closed-form-free covariance of the numeric tail under r -> lambda r.

    If f solves the radial equation at coupling alpha, lambda^(-nu-1/2)
    f(lambda r) is the regular solution (f ~ r^(nu+1/2) at the origin) at
    lambda^(2-mu) alpha, with the same theta. The tail
    r^(-mu/4) f ~ C sin(theta + D) then keeps D and scales C by
    lambda^(mu/4 - nu - 1/2), i.e. C ~ alpha^(-nu/(2-mu) - 1/4).
    """

    @given(d=st.sampled_from((2, 3, 4, 5)),
           mu=st.sampled_from((0.3, 0.5, 1.0, 1.5, 1.9)),
           alpha=st.floats(min_value=0.5, max_value=4.0),
           l=st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_quadrupled_coupling(self, d, mu, alpha, l):
        ch, ch4 = (_channel(d, mu, a, l) for a in (alpha, 4.0 * alpha))
        pa, pa4 = (solve_channel(c)[1].phase_amplitude for c in (ch, ch4))
        assert abs(circular_difference(pa4.phase_D, pa.phase_D)) <= 1e-9
        ratio = pa4.amplitude_C / pa.amplitude_C
        assert ratio == pytest.approx(4.0 ** (-ch.nu / (2.0 - mu) - 0.25), rel=1e-8)


class TestCost:
    """Deterministic cost guards: accepted integrator steps, not time."""

    @pytest.mark.parametrize("d, alpha, l_30, l_150", [(5, 0.5, 0, 6), (3, 4.0, 1, 7)])
    def test_steps_grow_linearly_in_nu_tilde(self, d, alpha, l_30, l_150):
        # mu = 1.9: nu_tilde = 30 at l_30 and 150 at l_150; linear growth
        # gives a step ratio near 5, quadratic growth 25. (5, 1.9, 0.5, 6)
        # is the sweep's hardest channel: 3,482 steps, the Riccati march
        # to 0.95 nu_tilde and the linear one to the end of the one period
        # from theta = 1.5 nu_tilde (the linear march alone from the seed
        # takes 14,090).
        steps = []
        for l in (l_30, l_150):
            ch = _channel(d, 1.9, alpha, l)
            sample, _ = solve_channel(ch)
            steps.append(sample.n_steps)
        assert ch.nu_tilde == pytest.approx(150.0)
        assert steps[1] <= 3_600
        assert steps[1] / steps[0] <= 8.0


def test_route_independence_imports():
    # static guard: the numeric route takes only the shared result type and
    # angle reduction from the closed-form module, and no special functions
    tree = ast.parse(inspect.getsource(numeric))
    from_closedform = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
        elif isinstance(node, ast.Import):
            module = []
        else:
            continue
        names = [alias.name for alias in node.names]
        if module[-1:] == ["closedform"]:
            from_closedform.update(names)
            continue
        parts = set(module).union(*(name.split(".") for name in names))
        assert not parts & {"closedform", "specfn", "_kernels", "scipy",
                            "mpmath"}, ast.unparse(node)
    assert from_closedform == {"PhaseAmplitude", "reduce_angle"}


def test_package_calls_no_linalg():
    # static guard: the tail is matched in closed form, so no module of the
    # package reaches numpy.linalg (and through it LAPACK)
    for path in sorted(Path(numeric.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "linalg", f"{path.name}: {ast.unparse(node)}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                assert not any("linalg" in name.split(".") for name in names), (
                    f"{path.name}: {ast.unparse(node)}")
