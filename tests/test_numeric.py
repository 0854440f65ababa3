"""Numerical pipeline: origin series, adaptive integration, tail fit."""

import dataclasses
import math

import numpy as np
import pytest

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
    solve_channel,
)
from zescat.numeric import (
    _radius_at,
    _sample_grid,
    default_match_radius,
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
        grid = np.geomspace(1e-2, 50.0, 400)
        sample = integrate_radial(ch, seed, grid, tol=1e-10)
        assert np.allclose(sample.f, grid, rtol=1e-10, atol=0.0)
        assert np.allclose(sample.df, 1.0, rtol=1e-10, atol=0.0)

    def test_matches_closed_form_at_one(self):
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        grid = np.geomspace(r0, 1.0, 64)
        sample = integrate_radial(ch, seed, grid, tol=1e-12)
        assert sample.f[-1] == pytest.approx(J1_AT_2, abs=1e-8)

    def test_tolerance_degrades_monotonically(self):
        ch = _channel(3, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        grid = np.geomspace(r0, 1.0, 16)
        errs = []
        for tol in (1e-6, 1e-12):
            sample = integrate_radial(ch, seed, grid, tol=tol)
            errs.append(abs(sample.f[-1] - J1_AT_2))
        assert errs[0] > errs[1]

    def test_grid_and_stats(self):
        ch = _channel(2, 1.0, 1.0, 0)
        r0 = default_match_radius(ch)
        seed = frobenius_seed(ch, r0)
        sample = integrate_radial(ch, seed, _sample_grid(ch, r0, (160.0, 320.0)),
                                  tol=1e-10)
        assert sample.r[0] == r0
        assert np.all(np.diff(sample.r) > 0.0)
        assert sample.n_steps > 0
        assert sample.max_error_estimate <= 1.0
        assert np.all(np.isfinite(sample.f))

    def test_overflowing_solution_reports_radius(self):
        # a huge index makes the below-barrier growth overflow doubles
        ch = Channel(d=2, mu=1.0, alpha=1.0, l=500)
        seed = dataclasses.replace(
            frobenius_seed(_channel(3, 1.0, 1.0, 0), 1e-2),
            seed_value=1.0, seed_derivative=500.5 / 1e-2,
        )
        with pytest.raises(IntegrationError) as err:
            integrate_radial(ch, seed, np.geomspace(1e-2, 1e4, 50), tol=1e-10)
        assert err.value.radius > 0.0

    def test_input_validation(self):
        ch = _channel(3, 1.0, 1.0, 0)
        seed = frobenius_seed(ch, 1e-2)
        with pytest.raises(ValueError):  # grid starts below the match radius
            integrate_radial(ch, seed, np.geomspace(1e-3, 1.0, 8), tol=1e-10)
        # a negative tolerance, and one below double rounding that the
        # step control could never meet
        for tol in (-1e-10, 1e-30):
            with pytest.raises(ValueError, match="tol"):
                integrate_radial(ch, seed, np.geomspace(1e-2, 1.0, 8), tol=tol)
        with pytest.raises(ValueError):
            integrate_radial(ch, seed, np.array([1e-2, 1e-2, 1.0]), tol=1e-10)
        # a hand-built seed is the one way a non-finite state gets in
        bad = dataclasses.replace(seed, seed_value=math.nan)
        with pytest.raises(IntegrationError, match="seed state"):
            integrate_radial(ch, bad, np.geomspace(1e-2, 1.0, 8), tol=1e-10)


def _synthetic_sample(ch, amplitude, phase, theta_lo=60.0, periods=20, n=4000):
    theta = np.linspace(theta_lo, theta_lo + periods * 2.0 * math.pi, n)
    r = (theta / ch.b) ** (1.0 / ch.sigma)
    y = amplitude * np.sin(theta + phase)
    return RadialSolutionSample(r=r, f=r ** (ch.mu / 4.0) * y, df=np.zeros_like(r),
                                n_steps=0, n_rejected=0, max_error_estimate=0.0)


class TestExtractPhaseAmplitude:
    def test_exact_model_recovered(self):
        ch = _channel(2, 1.0, 1.0, 0)
        sample = _synthetic_sample(ch, 3.0, 0.7)
        fit = extract_phase_amplitude(ch, sample, (sample.r[0], sample.r[-1]))
        assert fit.phase_amplitude.amplitude_C == pytest.approx(3.0, abs=1e-12)
        assert fit.phase_amplitude.phase_D == pytest.approx(0.7, abs=1e-12)
        assert fit.residual_rms < 1e-12
        # the squared residual must not overflow at a huge amplitude
        sample = _synthetic_sample(ch, 1e200, 0.7)
        fit = extract_phase_amplitude(ch, sample, (sample.r[0], sample.r[-1]))
        assert fit.phase_amplitude.amplitude_C == pytest.approx(1e200, rel=1e-12)
        assert fit.phase_amplitude.phase_D == pytest.approx(0.7, abs=1e-12)
        assert fit.residual_rms < 1e-12 * 1e200

    def test_window_errors(self):
        ch = _channel(2, 1.0, 1.0, 0)
        sample = _synthetic_sample(ch, 1.0, 0.1)
        r_of = lambda th: (th / ch.b) ** (1.0 / ch.sigma)
        with pytest.raises(FitWindowError):  # not deep oscillatory
            extract_phase_amplitude(ch, sample, (r_of(10.0), sample.r[-1]))
        with pytest.raises(FitWindowError):  # under two periods
            extract_phase_amplitude(ch, sample, (r_of(60.0), r_of(60.0 + 3.0)))
        sparse = RadialSolutionSample(
            r=sample.r[::800], f=sample.f[::800], df=sample.df[::800],
            n_steps=0, n_rejected=0, max_error_estimate=0.0)
        with pytest.raises(FitWindowError):  # fewer than 10 points
            extract_phase_amplitude(ch, sparse, (sample.r[0], sample.r[-1]))

    def test_residual_tolerance_enforced(self):
        ch = _channel(2, 1.0, 1.0, 0)
        sample = _synthetic_sample(ch, 1.0, 0.3)
        rng = np.random.default_rng(11)
        noisy = dataclasses.replace(sample, f=sample.f * (1.0 + 1e-3 * rng.standard_normal(sample.f.shape)))
        with pytest.raises(TailFitError):
            extract_phase_amplitude(ch, noisy, (sample.r[0], sample.r[-1]))
        # ... and at a tiny amplitude, where the squared residual must not
        # underflow to a vacuous rms of 0
        tiny = dataclasses.replace(noisy, f=noisy.f * 1e-200)
        with pytest.raises(TailFitError):
            extract_phase_amplitude(ch, tiny, (sample.r[0], sample.r[-1]))
        # noise well under the fixed 1e-5 tolerance still fits
        quiet = dataclasses.replace(sample, f=sample.f * (1.0 + 1e-7 * rng.standard_normal(sample.f.shape)))
        fit = extract_phase_amplitude(ch, quiet, (sample.r[0], sample.r[-1]))
        assert fit.phase_amplitude.amplitude_C == pytest.approx(1.0, rel=1e-5)


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
        window = default_theta_window(ch)
        grid = _sample_grid(ch, r0, window)
        fits = []
        for s in (seed, seed2):
            sample = integrate_radial(ch, s, grid, tol=1e-11)
            fits.append(extract_phase_amplitude(
                ch, sample, (_radius_at(ch, window[0]), grid[-1])))
        c1, c2 = (f.phase_amplitude.amplitude_C for f in fits)
        d1, d2 = (f.phase_amplitude.phase_D for f in fits)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-10)
        assert abs(circular_difference(d1, d2)) <= 1e-10

    def test_window_shift_stability(self):
        # moving the window start by one period barely moves (C, D); the
        # floor term covers rounding-level jitter of the near-interpolating
        # fit, whose residual can sit far below coefficient noise
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 1), (2, 0.5, 4.0, 2)]:
            ch = _channel(d, mu, alpha, l)
            sample, fit = solve_channel(ch)
            shifted = (_radius_at(ch, fit.theta_lo + 2.0 * math.pi), fit.r_hi)
            fit2 = extract_phase_amplitude(ch, sample, shifted)
            c = fit.phase_amplitude.amplitude_C
            allowance = max(10.0 * fit.residual_rms, 1e-9 * c)
            assert abs(fit2.phase_amplitude.amplitude_C - c) <= allowance
            assert abs(circular_difference(fit2.phase_amplitude.phase_D,
                                           fit.phase_amplitude.phase_D)) * c <= allowance

    def test_sample_density_near_endpoint(self):
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
