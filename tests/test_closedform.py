"""Closed-form radial solution: normalization, amplitude, phase, residuals."""

import csv
import math

import numpy as np
import pytest

from zescat import (
    PotentialParams,
    boundary_normalization,
    closed_form_amplitude,
    closed_form_amplitude_variant,
    closed_form_f,
    closed_form_phase,
    gamma,
    make_channel,
    reduce_angle,
)
from zescat.cli import EXIT_OK, main

from oracles import bessel_j_series_only, bisect_root

# mpmath references (50 digits): J_1(2) and the first positive zero of J_3.
J1_AT_2 = 0.57672480775687339
J3_FIRST_ZERO = 6.3801618959239835


def _channel(d, mu, alpha, l):
    return make_channel(PotentialParams(d=d, mu=mu, alpha=alpha), l)


class TestClosedFormF:
    def test_matches_bessel_value_at_one(self):
        # d=3, mu=1, alpha=1, l=0: f(1) = Gamma(2) (1)^1 J_1(2)
        ch = _channel(3, 1.0, 1.0, 0)
        assert closed_form_f(ch, 1.0) == pytest.approx(J1_AT_2, rel=1e-12)
        # the frozen constant itself re-derives from the series oracle
        assert bessel_j_series_only(1.0, 2.0) == pytest.approx(J1_AT_2, rel=1e-14)

    def test_boundary_limit_nu_zero(self):
        ch = _channel(2, 1.0, 1.0, 0)
        vals = [boundary_normalization(ch, r) for r in (1e-4, 1e-6, 1e-8)]
        for v in vals:
            assert v == pytest.approx(1.0, abs=2e-4)
        assert abs(vals[2] - 1.0) < abs(vals[0] - 1.0)

    def test_vanishes_at_mapped_bessel_zero(self):
        # first zero of J_3, located with the series-only oracle, pulled
        # back through r = (s1/b)^(2/(2-mu)) for the nu_tilde = 3 channel
        ch = _channel(3, 1.0, 1.0, 1)
        assert ch.nu_tilde == 3.0
        zero = bisect_root(lambda s: bessel_j_series_only(3.0, s), 6.0, 7.0)
        assert zero == pytest.approx(J3_FIRST_ZERO, rel=1e-13)
        r_node = (zero / ch.b) ** (1.0 / ch.sigma)
        scale = gamma(4.0) * math.sqrt(r_node)
        assert abs(closed_form_f(ch, r_node)) <= 1e-12 * scale

    def test_domain_error(self):
        ch = _channel(3, 1.0, 1.0, 0)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                closed_form_f(ch, bad)

    def test_prefactor_overflow_reported(self):
        ch = _channel(2, 1.9, 1.0, 50)  # nu_tilde = 1000
        with pytest.raises(OverflowError):
            closed_form_f(ch, 1.0)
        with pytest.raises(OverflowError):
            closed_form_amplitude(ch)

    def test_scaling_covariance(self):
        # replacing alpha by lam^(2-mu) alpha and r by r/lam rescales f by
        # lam^(-nu-1/2); both sides evaluate the same Bessel argument
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 1), (4, 0.5, 2.0, 2), (2, 1.5, 0.5, 3)]:
            ch = _channel(d, mu, alpha, l)
            for lam in (2.0, 10.0):
                ch_scaled = _channel(d, mu, lam ** (2.0 - mu) * alpha, l)
                for r in (0.7, 3.0, 40.0):
                    lhs = closed_form_f(ch_scaled, r / lam)
                    rhs = lam ** (-ch.nu - 0.5) * closed_form_f(ch, r)
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_ode_residual_on_log_grid(self):
        # -f'' + ((nu^2-1/4)/r^2 - alpha/r^mu) f = 0, 5-point stencil
        for (d, mu, alpha, l) in [(2, 1.0, 1.0, 0), (3, 0.5, 1.0, 2),
                                  (5, 1.5, 4.0, 3), (4, 1.9, 0.5, 1)]:
            ch = _channel(d, mu, alpha, l)
            r = np.geomspace(1e-3, 1e2, 80)
            q = (ch.nu ** 2 - 0.25) / r ** 2 - alpha * r ** (-mu)
            h = np.minimum(2e-3 * r, 0.05 / np.sqrt(np.abs(q) + 1e-30))
            st = np.stack([r - 2 * h, r - h, r, r + h, r + 2 * h])
            f = closed_form_f(ch, st.ravel()).reshape(st.shape)
            fpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            resid = np.abs(-fpp + q * f[2])
            scale = (np.abs(fpp) + np.abs(f[2]) / r ** 2
                     + alpha * np.abs(f[2]) * r ** (-mu) + 1e-30)
            assert np.max(resid / scale) <= 1e-4

    def test_tail_converges_to_sinusoid(self):
        # |r^(-mu/4) f - C sin(theta + D)| <= 5 C / theta deep in the tail
        for (d, mu, alpha, l) in [(2, 1.0, 1.0, 0), (3, 1.0, 1.0, 0),
                                  (2, 0.5, 4.0, 1)]:
            ch = _channel(d, mu, alpha, l)
            C = closed_form_amplitude(ch)
            D = closed_form_phase(ch)
            for theta in (200.0, 400.0, 800.0):
                r = (theta / ch.b) ** (1.0 / ch.sigma)
                dev = abs(r ** (-mu / 4.0) * closed_form_f(ch, r)
                          - C * math.sin(theta + D))
                assert dev <= 5.0 * C / theta


class TestBoundaryNormalization:
    def test_first_correction_bound_at_1e6(self):
        for (d, mu, alpha, l) in [(2, 1.0, 1.0, 0), (3, 0.3, 0.5, 2),
                                  (5, 0.5, 4.0, 6), (4, 1.5, 1.0, 3)]:
            ch = _channel(d, mu, alpha, l)
            r = 1e-6
            c1 = alpha / ((2.0 - mu) * (2.0 - mu + 2.0 * ch.nu))
            assert abs(boundary_normalization(ch, r) - 1.0) <= 1.1 * c1 * r ** (2.0 - mu)

    def test_value_at_1e8_for_d2(self):
        ch = _channel(2, 1.0, 1.0, 0)
        v = boundary_normalization(ch, 1e-8)
        assert 1.0 - 2e-4 <= v <= 1.0

    def test_alpha_enters_only_through_alpha_r_power(self):
        # rescaling r by alpha^(-1/(2-mu)) makes the value alpha-independent
        d, mu, l = 3, 0.8, 1
        r_ref = 1e-5
        vals = []
        for alpha in (0.5, 1.0, 4.0):
            ch = _channel(d, mu, alpha, l)
            vals.append(boundary_normalization(ch, r_ref * alpha ** (-1.0 / (2.0 - mu))))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)


class TestAmplitude:
    def test_reference_channels(self):
        # nu_tilde = 1, b = 2: C = Gamma(2)/sqrt(pi)
        ch = _channel(3, 1.0, 1.0, 0)
        assert closed_form_amplitude(ch) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        # nu_tilde = 0 kills the order-dependent factor
        ch2 = _channel(2, 1.0, 1.0, 0)
        assert closed_form_amplitude(ch2) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_two_algebraic_routes_agree(self):
        # pi^(-1/2) Gamma(nt+1) ((2-mu)/sqrt(alpha))^(nt+1/2)
        #   == Gamma(nt+1) (2/b)^nt sqrt(2/(pi b))
        for (d, mu, alpha, l) in [(2, 1.0, 1.0, 0), (3, 0.5, 4.0, 2),
                                  (5, 1.5, 0.5, 6), (4, 1.9, 1.0, 2)]:
            ch = _channel(d, mu, alpha, l)
            via_bessel = (gamma(ch.nu_tilde + 1.0) * (2.0 / ch.b) ** ch.nu_tilde
                          * math.sqrt(2.0 / (math.pi * ch.b)))
            assert closed_form_amplitude(ch) == pytest.approx(via_bessel, rel=1e-12)

    def test_phase_table_amplitudes_match_mpmath(self, tmp_path):
        # d=5, mu=1.9, alpha=1: nu_tilde = 20 l + 30 and (2-mu)/sqrt(alpha)
        # is exact in binary; rows l = 8..13 have nu_tilde + 1 past 171.624,
        # where Gamma(nu_tilde + 1) alone leaves double range
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "table.csv"
        assert main(["phase-table", "-d", "5", "--mu", "1.9", "--alpha", "1.0",
                     "--lmax", "200", "--format", "csv", "--out", str(out)]) == EXIT_OK
        with out.open(newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["C_closed"]]
        past_gamma = 0
        with mpmath.workdps(30):
            base = 2 - mpmath.mpf(1.9)
            for row in rows:
                nt = float(row["nu_tilde"])
                ref = (mpmath.gamma(mpmath.mpf(nt) + 1) * base ** (mpmath.mpf(nt) + 0.5)
                       / mpmath.sqrt(mpmath.pi))
                assert abs(float(row["C_closed"]) - ref) <= 2.5e-14 * ref, row
                past_gamma += nt + 1.0 > 171.624
        assert len(rows) == 14 and past_gamma == 6

    def test_underflowing_power_base_matches_mpmath(self):
        # d=3, mu=1.9, alpha=100, l=8: nu_tilde = 170 keeps Gamma in range,
        # but base^(nu_tilde + 1/2) = 0.01^170.5 underflows on its own
        mpmath = pytest.importorskip("mpmath")
        ch = _channel(3, 1.9, 100.0, 8)
        base = (2.0 - ch.mu) / math.sqrt(ch.alpha)
        assert ch.nu_tilde + 1.0 <= 171.624 and base ** (ch.nu_tilde + 0.5) == 0.0
        with mpmath.workdps(30):
            nt = mpmath.mpf(ch.nu_tilde)
            ref = (mpmath.gamma(nt + 1) * mpmath.mpf(base) ** (nt + 0.5)
                   / mpmath.sqrt(mpmath.pi))
        assert abs(closed_form_amplitude(ch) - ref) <= 1e-14 * ref

    def test_amplitude_below_double_range_reported(self):
        # d=3, mu=1, alpha=1e8: base = 1e-4, and C leaves the normal double
        # range at l = 66 (nu_tilde 133); it is reported like an overflow,
        # not returned as a subnormal or 0.0
        assert closed_form_amplitude(_channel(3, 1.0, 1e8, 65)) > 4.7e-305
        for l in (66, 71, 80):
            with pytest.raises(OverflowError, match="underflows"):
                closed_form_amplitude(_channel(3, 1.0, 1e8, l))
        with pytest.raises(OverflowError, match="underflows"):
            closed_form_f(_channel(3, 1.0, 1e8, 67), 1.0)

    def test_variant_reading_differs_when_nu_not_mu(self):
        ch = _channel(3, 1.0, 1.0, 0)  # nu = 0.5 != mu = 1
        ratio = closed_form_amplitude_variant(ch) / closed_form_amplitude(ch)
        assert ratio == pytest.approx(1.5 ** 1.5, rel=1e-12)
        assert abs(ratio - 1.0) > 0.5

    def test_variant_reading_coincides_when_nu_equals_mu(self):
        ch = _channel(3, 0.5, 1.0, 0)  # nu = 0.5 = mu
        assert closed_form_amplitude_variant(ch) == pytest.approx(
            closed_form_amplitude(ch), rel=1e-14)

    def test_variant_undefined_for_nu_at_least_two(self):
        ch = _channel(3, 1.0, 1.0, 2)  # nu = 2.5
        with pytest.raises(ValueError):
            closed_form_amplitude_variant(ch)


class TestPhase:
    def test_d2_is_quarter_pi(self):
        for mu in (0.3, 1.0, 1.7):
            for alpha in (0.5, 2.0):
                ch = _channel(2, mu, alpha, 0)
                assert closed_form_phase(ch) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_d3_mu1(self):
        ch = _channel(3, 1.0, 1.0, 0)
        assert closed_form_phase(ch) == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_d3_mu1_l3_reduced(self):
        # -7 pi/2 + pi/4 = -13 pi/4, reduced into (-pi, pi] gives 3 pi/4
        ch = _channel(3, 1.0, 1.0, 3)
        assert closed_form_phase(ch) == pytest.approx(3.0 * math.pi / 4, abs=1e-13)

    def test_range_is_half_open(self):
        for d in (2, 3, 4, 5, 6):
            for mu in (0.1, 0.7, 1.4, 1.9):
                for l in range(0, 40):
                    D = closed_form_phase(_channel(d, mu, 1.0, l))
                    assert -math.pi < D <= math.pi

    def test_two_printed_forms_agree(self):
        # -pi nu/(2-mu) + pi/4 versus -pi(d-2+2l)/(2(2-mu)) + pi/4
        for d in (2, 3, 4, 5, 6):
            for mu in (0.1, 0.5, 1.0, 1.9):
                for l in (0, 1, 5, 17, 60):
                    ch = _channel(d, mu, 1.0, l)
                    alt = reduce_angle(-math.pi * (d - 2 + 2 * l) / (2.0 * (2.0 - mu))
                                       + math.pi / 4.0)
                    diff = abs(reduce_angle(closed_form_phase(ch) - alt))
                    assert diff <= 1e-12

    def test_alpha_independent(self):
        a = closed_form_phase(_channel(3, 0.7, 0.25, 2))
        b = closed_form_phase(_channel(3, 0.7, 9.0, 2))
        assert a == b
