"""S(0) eigenvalues: both routes, unitarity, and the diagonal action."""

import math

import numpy as np
import pytest

from zescat import (
    HarmonicCoefficients,
    ParameterError,
    PotentialParams,
    apply_s0,
    closed_form_phase,
    eigenvalue_via_multiplier,
    eigenvalue_via_phase,
    harmonic_dim,
    make_channel,
    solve_channel,
    verify_theorem_identity,
)

MU_GRID = (0.1, 0.3, 0.5, 1.0, 1.5, 1.9)


class TestEigenvalueRoutes:
    def test_via_phase_trivial_cancellation(self):
        # d = 2, l = 0, D = pi/4: exponent 2(pi/4 - pi/4) = 0
        ch = make_channel(PotentialParams(d=2, mu=1.0, alpha=1.0), 0)
        assert eigenvalue_via_phase(ch, math.pi / 4) == pytest.approx(1.0, abs=1e-15)

    def test_via_phase_d3(self):
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        ch = make_channel(p, 0)
        assert eigenvalue_via_phase(ch, -math.pi / 4) == pytest.approx(-1j, abs=1e-15)
        ch = make_channel(p, 1)
        assert eigenvalue_via_phase(ch, closed_form_phase(ch)) == pytest.approx(1j, abs=1e-14)

    def test_via_phase_periodicity(self):
        ch = make_channel(PotentialParams(d=4, mu=0.7, alpha=2.0), 3)
        d0 = closed_form_phase(ch)
        assert abs(eigenvalue_via_phase(ch, d0)
                   - eigenvalue_via_phase(ch, d0 + 2.0 * math.pi)) < 1e-14

    def test_via_multiplier_examples(self):
        # d=2, l=0: nu = 0 gives eigenvalue 1 for every mu, alpha
        for mu in (0.2, 1.0, 1.8):
            for alpha in (0.5, 3.0):
                p = PotentialParams(d=2, mu=mu, alpha=alpha)
                assert eigenvalue_via_multiplier(p, 0) == 1.0
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        assert eigenvalue_via_multiplier(p, 0) == pytest.approx(-1j, abs=1e-15)
        assert eigenvalue_via_multiplier(p, 1) == pytest.approx(1j, abs=1e-15)

    def test_unitarity(self):
        for d in (2, 3, 4, 5, 6):
            for mu in MU_GRID:
                p = PotentialParams(d=d, mu=mu, alpha=1.0)
                for l in range(0, 101):
                    assert abs(abs(eigenvalue_via_multiplier(p, l)) - 1.0) <= 1e-12

    def test_route_agreement_over_grid(self):
        for d in (2, 3, 4, 5, 6):
            for mu in MU_GRID:
                p = PotentialParams(d=d, mu=mu, alpha=1.0)
                report = verify_theorem_identity(p, 100)
                assert report.max_difference <= 1e-12


class TestIdentityReport:
    def test_d3_mu1(self):
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        report = verify_theorem_identity(p, 10)
        assert report.l_max == 10
        assert len(report.differences) == 11
        assert report.max_difference <= 1e-12
        assert report.eigenvalues == tuple(eigenvalue_via_multiplier(p, l)
                                           for l in range(11))
        assert report.eigenvalues[1] == pytest.approx(1j, abs=1e-14)

    def test_nu_zero_channel_gives_exactly_one(self):
        p = PotentialParams(d=2, mu=0.5, alpha=2.0)
        ch = make_channel(p, 0)
        assert eigenvalue_via_phase(ch, closed_form_phase(ch)) == 1.0
        assert eigenvalue_via_multiplier(p, 0) == 1.0

    def test_report_is_alpha_independent(self):
        reports = [
            verify_theorem_identity(PotentialParams(d=4, mu=1.3, alpha=a), 25)
            for a in (0.25, 1.0, 7.5)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_corrupted_phase_breaks_identity(self):
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        bad = lambda ch: closed_form_phase(ch) - math.pi / 2  # sign flip of pi/4
        report = verify_theorem_identity(p, 5, phase_fn=bad)
        assert report.max_difference > 1.0

    def test_numeric_route_closure(self):
        # replacing the closed-form phase by the fitted one shifts the
        # route-1 eigenvalue by at most twice the phase tolerance
        for (d, mu, alpha, l) in [(3, 1.0, 1.0, 1), (2, 0.5, 4.0, 0)]:
            p = PotentialParams(d=d, mu=mu, alpha=alpha)
            ch = make_channel(p, l)
            _, fit = solve_channel(ch)
            e_numeric = eigenvalue_via_phase(ch, fit.phase_amplitude.phase_D)
            e_closed = eigenvalue_via_phase(ch, closed_form_phase(ch))
            assert abs(e_numeric - e_closed) <= 2e-4


class TestHarmonicDim:
    def test_d2(self):
        assert harmonic_dim(2, 0) == 1
        assert all(harmonic_dim(2, l) == 2 for l in range(1, 10))

    def test_d3_and_d4(self):
        for l in range(0, 12):
            assert harmonic_dim(3, l) == 2 * l + 1
            assert harmonic_dim(4, l) == (l + 1) ** 2

    def test_d5_small(self):
        assert harmonic_dim(5, 0) == 1
        assert harmonic_dim(5, 1) == 5
        assert harmonic_dim(5, 2) == 14


class TestHarmonicCoefficients:
    def test_validation(self):
        HarmonicCoefficients(d=3, entries=((0, 0, 1 + 0j), (2, 4, 0.5j)), max_order=2)
        with pytest.raises(ValueError):
            HarmonicCoefficients(d=3, entries=((3, 0, 1 + 0j),), max_order=2)
        with pytest.raises(ValueError):
            HarmonicCoefficients(d=3, entries=((1, 3, 1 + 0j),), max_order=2)
        with pytest.raises(ValueError):
            HarmonicCoefficients(d=2, entries=((0, 1, 1 + 0j),), max_order=1)


class TestApplyS0:
    def test_l0_sector_unchanged_in_d2(self):
        p = PotentialParams(d=2, mu=1.3, alpha=2.0)
        coeffs = HarmonicCoefficients(d=2, entries=((0, 0, 0.3 - 0.4j),), max_order=0)
        out = apply_s0(p, coeffs)
        assert out.entries[0][2] == 0.3 - 0.4j

    def test_d3_l1_multiplied_by_i(self):
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        coeffs = HarmonicCoefficients(d=3, entries=((1, 1, 1 + 0j),), max_order=1)
        out = apply_s0(p, coeffs)
        assert out.entries[0][2] == pytest.approx(1j, abs=1e-14)

    def test_norm_preserved_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            d = int(rng.integers(2, 6))
            mu = float(rng.uniform(0.05, 1.95))
            alpha = float(rng.uniform(0.1, 5.0))
            p = PotentialParams(d=d, mu=mu, alpha=alpha)
            lmax = int(rng.integers(0, 9))
            entries = []
            for l in range(lmax + 1):
                for m in range(min(harmonic_dim(d, l), 4)):
                    entries.append((l, m, complex(rng.standard_normal(),
                                                  rng.standard_normal())))
            coeffs = HarmonicCoefficients(d=d, entries=tuple(entries), max_order=lmax)
            out = apply_s0(p, coeffs)
            assert out.norm == pytest.approx(coeffs.norm, rel=1e-12)
            assert out.max_order == coeffs.max_order
            assert [(l, m) for l, m, _ in out.entries] == [(l, m) for l, m, _ in coeffs.entries]

    def test_output_independent_of_alpha(self):
        entries = ((0, 0, 1 + 2j), (1, 0, -0.5j), (3, 2, 0.25 + 0j))
        coeffs = HarmonicCoefficients(d=4, entries=entries, max_order=3)
        outs = [apply_s0(PotentialParams(d=4, mu=0.9, alpha=a), coeffs)
                for a in (0.5, 1.0, 8.0)]
        assert outs[0] == outs[1] == outs[2]

    def test_dimension_mismatch(self):
        p = PotentialParams(d=3, mu=1.0, alpha=1.0)
        coeffs = HarmonicCoefficients(d=4, entries=((0, 0, 1 + 0j),), max_order=0)
        with pytest.raises(ParameterError):
            apply_s0(p, coeffs)
