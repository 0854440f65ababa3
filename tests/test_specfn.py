"""Special-function tests: gamma and the real-order Bessel evaluator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zescat import _kernels, bessel_j, bessel_j_asymptotic, gamma, log_gamma

from oracles import bessel_j_series_only, bisect_root, gamma_half_integer

J0_FIRST_ZERO = 2.404825557695773

# Reference values computed with mpmath.besselj at 50 significant digits.
_BESSEL_REFERENCE = (
    (0.0, 0.5, 0.93846980724081290),
    (0.0, 4.0, -0.39714980986384737),
    (0.25, 2.0, 0.39781106433817835),
    (0.5, 1.0, 0.67139670714180309),
    (1.0, 3.0, 0.33905895852593646),
    (2.5, 7.5, -0.29910405245731305),
    (7.0, 5.0, 0.053376410155890715),
    (12.0, 11.0, 0.12159978929316294),
    (40.0, 20.0, 9.9023894137446861e-10),
    (60.0, 35.0, 2.4120888528943901e-10),
    (150.0, 50.0, 1.2915954231385293e-55),
    (0.0, 13.0, 0.20692610237706781),
    (0.5, 20.0, 0.16288076385502987),
    (1.0, 15.0, 0.20510403861352276),
    (3.0, 25.0, 0.10834308106150890),
    (10.0, 14.0, 0.085006705446061018),
    (20.0, 22.0, 0.24222188743698819),
    (30.0, 29.0, 0.10304804665860467),
    (33.3, 40.0, -0.037808974177842371),
    (45.0, 50.0, 0.13228035222445818),
    (60.0, 61.0, 0.13976523619361894),
    (60.0, 80.0, -0.086173789844633471),
    (60.0, 200.0, 0.034156500001271930),
    (0.0, 50.0, 0.055812327669251815),
    (0.25, 100.0, -0.011070927544649827),
    (1.0, 300.0, -0.031887431377499950),
    (4.5, 1000.0, 0.021004221964091730),
    (9.0, 5000.0, -0.0091703053212943374),
    (20.0, 10000.0, -0.0071676996068597708),
    (60.0, 10000.0, -0.0076346476423293290),
)

# Same provenance (mpmath.gamma).
_GAMMA_REFERENCE = (
    (0.07, 13.773600607733806),
    (0.1, 9.5135076986687318),
    (0.23, 3.9598037233577801),
    (0.5, 1.772453850905516),
    (1.7, 0.90863873285329045),
    (3.14159, 2.2880318621867136),
    (9.5, 119292.46199460901),
    (17.25, 42249866656927.036),
    (24.0, 2.5852016738884977e+22),
    (33.0, 2.6313083693369353e+35),
    (49.5, 8.6676018431352723e+61),
    (96.3, 4.0579383932729441e+148),
    (120.7, 1.5894968726397397e+198),
    (171.0, 7.257415615307999e+306),
)


# The four Bessel regimes, by the helper that evaluates each.
_REGIMES = ("_bessel_series", "_bessel_hankel", "_bessel_upward", "_bessel_miller")


@pytest.fixture
def regime_calls(monkeypatch):
    """Record (helper, order, arguments) of every call of a regime helper."""
    calls = []
    for name in _REGIMES:
        def spy(nu, s, _name=name, _fn=getattr(_kernels, name)):
            calls.append((_name, nu, np.array(s, copy=True)))
            return _fn(nu, s)
        monkeypatch.setattr(_kernels, name, spy)
    return calls


def _envelope_unit(nu, s, ref):
    """max(|J|, sqrt(2/(pi s)) where s > nu): the scale of the accuracy claim."""
    envelope = math.sqrt(2.0 / (math.pi * s)) if s > nu else 0.0
    return max(abs(ref), envelope)


class TestGamma:
    def test_small_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 15, 20])
    def test_half_integers_against_factorial_oracle(self, n):
        assert gamma(n + 0.5) == pytest.approx(gamma_half_integer(n), rel=1e-13)

    @pytest.mark.parametrize("x,ref", _GAMMA_REFERENCE)
    def test_reference_values(self, x, ref):
        assert gamma(x) == pytest.approx(ref, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=39.0))
    @settings(max_examples=300, deadline=None)
    def test_functional_equation(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                gamma(bad)
        with pytest.raises(OverflowError):
            gamma(200.0)

    def test_gamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(1e-6, 171.5, 400):
            with mpmath.workdps(40):
                ref = float(mpmath.gamma(mpmath.mpf(float(x))))
            assert gamma(float(x)) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_log_gamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(1e-3, 1e6, 400):
            with mpmath.workdps(40):
                ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert log_gamma(float(x)) == pytest.approx(
                ref, rel=0, abs=2e-15 * max(1.0, abs(ref)))

    def test_log_gamma_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)


class TestBesselOrder:
    """The order argument of bessel_j and bessel_j_asymptotic: any real
    that converts to a finite float >= 0."""

    def test_valid(self):
        assert bessel_j(np.float64(3.5), 1.0) == bessel_j(3.5, 1.0)
        assert bessel_j(3, 2.0) == bessel_j(3.0, 2.0)
        assert bessel_j_asymptotic(np.float64(3.5), 40.0) == bessel_j_asymptotic(3.5, 40.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_invalid(self, bad):
        for func in (bessel_j, bessel_j_asymptotic):
            with pytest.raises(ValueError, match="Bessel order"):
                func(bad, 1.0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        for nu in (0.5, 1.0, 3.7, 10.0):
            assert bessel_j(nu, 0.0) == 0.0

    def test_half_order_closed_form_point(self):
        # J_{1/2}(s) = sqrt(2/(pi s)) sin s, so J_{1/2}(pi/2) = 2/pi
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-10)

    @pytest.mark.parametrize("s", [0.3, 1.0, 5.0, 11.0, 17.0, 45.0, 200.0, 2000.0])
    def test_half_order_closed_form_all_regimes(self, s):
        exact = math.sqrt(2.0 / (math.pi * s)) * math.sin(s)
        envelope = math.sqrt(2.0 / (math.pi * s))
        assert abs(bessel_j(0.5, s) - exact) <= 1e-10 * envelope

    @pytest.mark.parametrize("nu,s,ref", _BESSEL_REFERENCE)
    def test_reference_values(self, nu, s, ref):
        assert bessel_j(nu, s) == pytest.approx(ref, rel=5e-11)

    def test_near_zero_absolute_accuracy(self):
        # reference points sit within one ulp of actual zeros of J_0, J_1
        assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-13
        assert abs(bessel_j(1.0, 3.831705970207512)) < 1e-13

    def test_first_zero_of_j0_via_series_oracle(self):
        zero = bisect_root(lambda s: bessel_j_series_only(0.0, s), 2.0, 3.0)
        assert zero == pytest.approx(J0_FIRST_ZERO, abs=1e-9)
        assert abs(bessel_j(0.0, J0_FIRST_ZERO)) < 1e-9

    @given(
        nu=st.floats(min_value=0.0, max_value=20.0),
        s=st.floats(min_value=1e-6, max_value=12.0),
    )
    @settings(max_examples=300, deadline=None)
    @example(nu=0.0, s=11.791015625)    # next to the fourth zero of J_0
    def test_series_oracle_agreement(self, nu, s):
        ref = bessel_j_series_only(nu, s)
        assert abs(bessel_j(nu, s) - ref) <= 1e-10 * abs(ref) + 1e-13

    @given(
        nu=st.floats(min_value=1.0, max_value=60.0),
        s=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_recurrence(self, nu, s):
        # J_{nu-1}(s) + J_{nu+1}(s) = (2 nu / s) J_nu(s)
        lhs = bessel_j(nu - 1.0, s) + bessel_j(nu + 1.0, s)
        rhs = (2.0 * nu / s) * bessel_j(nu, s)
        scale = max(abs(bessel_j(nu - 1.0, s)), abs(bessel_j(nu + 1.0, s)),
                    abs(rhs), 1e-300)
        assert abs(lhs - rhs) <= 1e-8 * scale

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 15.0, 30.0, 40.0])
    def test_small_argument_law(self, nu):
        # J_nu(s) Gamma(nu+1) (2/s)^nu -> 1 as s -> 0
        s = 1e-4
        product = bessel_j(nu, s) * gamma(nu + 1.0) * (2.0 / s) ** nu
        assert product == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.3, 10.0, 25.0, 60.0])
    def test_ode_residual(self, nu):
        # g'' + g'/s + (1 - nu^2/s^2) g = 0, centered differences, step 1e-3
        h = 1e-3
        for s in np.linspace(1.0, 50.0, 197):
            gm, g0, gp = (bessel_j(nu, s - h), bessel_j(nu, s), bessel_j(nu, s + h))
            d2 = (gp - 2.0 * g0 + gm) / (h * h)
            d1 = (gp - gm) / (2.0 * h)
            resid = d2 + d1 / s + (1.0 - nu * nu / (s * s)) * g0
            assert abs(resid) <= 1e-5 * max(1.0, abs(g0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(math.nan, 1.0)
        with pytest.raises(ValueError):
            bessel_j(math.inf, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, np.array([1.0, -2.0]))

    def test_array_evaluation_matches_scalar(self, regime_calls):
        # s spans [nu/10, nu^2] (at least [1e-3, 5000]), so each order
        # crosses every regime its argument range reaches
        for nu in (0.0, 2.5, 37.3, 150.0):
            s = np.geomspace(max(nu / 10.0, 1e-3), max(nu * nu, 5000.0), 80)
            vec = bessel_j(nu, s)
            assert vec.shape == s.shape
            for si, vi in zip(s, vec):
                assert vi == bessel_j(nu, float(si))
        assert {name for name, _, _ in regime_calls} == set(_REGIMES)

    def test_backward_recurrence_only_below_30_or_the_order(self, regime_calls):
        # The transition band s in (nu, nu^2/4) goes up from Hankel seeds in
        # floor(nu) steps; a backward sweep there would start at s + 40.
        for nu in (0.0, 2.5, 14.2, 37.3, 60.0, 150.0):
            bessel_j(nu, np.geomspace(max(nu / 10.0, 0.05), max(4.0 * nu * nu, 1e4), 300))
        seen = {name for name, _, _ in regime_calls}
        assert "_bessel_miller" in seen and "_bessel_upward" in seen
        for name, nu, s in regime_calls:
            if name == "_bessel_miller":
                assert not np.any((s >= 30.0) & (s > nu)), (nu, s)
            elif name == "_bessel_upward":
                assert np.all((s >= 30.0) & (s > nu)), (nu, s)

    def test_matches_mpmath_over_envelope(self, regime_calls):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)

        def log_uniform(lo, hi, n):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

        points = []
        for nu in rng.uniform(0.0, 60.0, 12):
            # series, Hankel, and Miller between 12 and 30
            points += [(nu, s) for s in log_uniform(1e-3, max(12.0, nu), 3)]
            points += [(nu, s) for s in log_uniform(max(30.0, nu * nu / 4.0), 1e4, 3)]
            points += [(nu, s) for s in rng.uniform(12.0, 30.0, 2) if s > nu]
            if nu * nu / 4.0 > max(30.0, nu):
                # upward recurrence between the order and the Hankel band
                points += [(nu, s) for s in log_uniform(max(30.0, nu), nu * nu / 4.0, 3)]
        for nu in (37.3, 60.0, 150.0):
            # just above the order, near nu^2/4, and below the order where
            # the series fails its cancellation guard (Miller from s >= 30)
            points += [(nu, nu + ds) for ds in (1e-6, 0.3, 2.0)]
            points += [(nu, nu * nu / 4.0 * f) for f in (0.9, 1.0, 1.1)]
            points += [(nu, nu * f) for f in (0.4, 0.6, 0.8, 0.97)]
        points += [(150.0, 54.7), (150.0, 1e4), (0.0, 2.404825557695773)]
        with mpmath.workdps(30):
            for nu, s in points:
                ref = float(mpmath.besselj(mpmath.mpf(float(nu)), mpmath.mpf(float(s))))
                err = abs(bessel_j(nu, s) - ref) / _envelope_unit(nu, s, ref)
                assert err <= 1e-10, (nu, s, err)
        assert {name for name, _, _ in regime_calls} == set(_REGIMES)


class TestBesselAsymptotic:
    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0, 123.0])
    def test_exact_for_half_order(self, s):
        exact = math.sqrt(2.0 / (math.pi * s)) * math.sin(s)
        assert bessel_j_asymptotic(0.5, s) == pytest.approx(exact, rel=1e-14)

    def test_close_to_bessel_at_large_argument(self):
        assert abs(bessel_j(0.0, 100.0) - bessel_j_asymptotic(0.0, 100.0)) < 2e-3

    def test_leading_term_arithmetic(self):
        # sqrt(2/(pi * pi/4)) sin(pi/2) = 2 sqrt(2) / pi
        val = bessel_j_asymptotic(0.0, math.pi / 4)
        assert val == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_j_asymptotic(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_j_asymptotic(0.5, -2.0)
