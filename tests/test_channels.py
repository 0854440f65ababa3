"""Parameter validation and per-channel derived constants."""

import math

import pytest

from zescat import (
    ParameterError,
    PotentialParams,
    make_channel,
)


class TestPotentialParams:
    def test_valid(self):
        p = PotentialParams(d=3, mu=1.0, alpha=2.0)
        assert (p.d, p.mu, p.alpha) == (3, 1.0, 2.0)

    def test_all_violations_reported_together(self):
        with pytest.raises(ParameterError) as err:
            PotentialParams(d=1, mu=2.5, alpha=-1.0)
        msg = str(err.value)
        assert "d" in msg and ">= 2" in msg
        assert "mu" in msg
        assert "alpha" in msg

    @pytest.mark.parametrize("mu", [0.0, 2.0, -0.5, 3.0, 5e-10, 2.0 - 5e-10])
    def test_mu_outside_open_interval_rejected(self, mu):
        with pytest.raises(ParameterError):
            PotentialParams(d=2, mu=mu, alpha=1.0)

    def test_mu_near_edge_but_allowed(self):
        PotentialParams(d=2, mu=1e-8, alpha=1.0)
        PotentialParams(d=2, mu=2.0 - 1e-8, alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan, math.inf])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ParameterError):
            PotentialParams(d=2, mu=1.0, alpha=alpha)

    @pytest.mark.parametrize("d", [1, 0, -3, 2.5, "3"])
    def test_bad_dimension(self, d):
        with pytest.raises(ParameterError):
            PotentialParams(d=d, mu=1.0, alpha=1.0)


class TestMakeChannel:
    def test_d2_l0(self):
        ch = make_channel(PotentialParams(d=2, mu=1.0, alpha=1.0), 0)
        assert ch.nu == 0.0
        assert ch.nu_tilde == 0.0
        assert ch.b == 2.0

    def test_d3_l0(self):
        ch = make_channel(PotentialParams(d=3, mu=1.0, alpha=1.0), 0)
        assert ch.nu == 0.5
        assert ch.nu_tilde == 1.0
        assert ch.b == 2.0

    def test_d3_mu_half_alpha4_l2(self):
        ch = make_channel(PotentialParams(d=3, mu=0.5, alpha=4.0), 2)
        assert ch.nu == 2.5
        assert ch.nu_tilde == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert ch.b == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert ch.sigma == 0.75

    def test_negative_l(self):
        with pytest.raises(ParameterError):
            make_channel(PotentialParams(d=3, mu=1.0, alpha=1.0), -1)

    def test_non_integer_l(self):
        with pytest.raises(ParameterError):
            make_channel(PotentialParams(d=3, mu=1.0, alpha=1.0), 1.5)

    def test_deterministic_construction(self):
        p = PotentialParams(d=5, mu=1.3, alpha=0.7)
        a = make_channel(p, 4)
        b = make_channel(p, 4)
        assert (a.nu, a.nu_tilde, a.b, a.sigma) == (b.nu, b.nu_tilde, b.b, b.sigma)

    @pytest.mark.parametrize("mu", [0.1, 0.3])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_carries_mu_and_alpha_exactly(self, mu, alpha):
        # values where rebuilding mu = 2 - 2 sigma or alpha = (b sigma)^2
        # from the derived constants drifts by an ulp
        p = PotentialParams(d=3, mu=mu, alpha=alpha)
        ch = make_channel(p, 2)
        assert (ch.d, ch.mu, ch.alpha) == (p.d, p.mu, p.alpha)
        assert ch.sigma == (2.0 - p.mu) / 2.0

    def test_sigma_in_unit_interval(self):
        for mu in (0.1, 0.5, 1.0, 1.9):
            ch = make_channel(PotentialParams(d=4, mu=mu, alpha=1.0), 1)
            assert 0.0 < ch.sigma < 1.0


class TestLaplaceBeltrami:
    def test_perfect_square_identity(self):
        # sqrt(l(l+d-2) + ((d-2)/2)^2) equals nu = l + (d-2)/2 exactly;
        # this ties the spectral multiplier to the per-channel phase.
        for d in range(2, 11):
            for l in range(0, 101):
                lam = l * (l + d - 2)
                nu = l + (d - 2) / 2.0
                assert abs(math.sqrt(lam + ((d - 2) / 2.0) ** 2) - nu) <= 1e-12
