"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The numeric sweep (criteria 2 and 3, the sweep accuracy gate and
the step budget) runs once and is shared; it takes about 1.2 seconds on
2 CPUs.
"""

import json
import math
import time

import numpy as np
import pytest

import zescat
from zescat import (
    PotentialParams,
    bessel_j,
    boundary_normalization,
    circular_difference,
    closed_form_amplitude,
    closed_form_amplitude_variant,
    closed_form_f,
    closed_form_phase,
    closedform,
    gamma,
    harmonic_dim,
    make_channel,
    solve_channel,
    verify_theorem_identity,
)
from zescat.cli import EXIT_INVALID, EXIT_OK, EXIT_TOLERANCE, main as cli_main
from zescat.numeric import _radius_at, default_theta_window
from zescat.smatrix import apply_s0, eigenvalue_via_multiplier, HarmonicCoefficients

from oracles import bessel_j_series_only, bisect_root

IDENTITY_DIMS = (2, 3, 4, 5, 6)
IDENTITY_MUS = (0.1, 0.3, 0.5, 1.0, 1.5, 1.9)
SWEEP_DIMS = (2, 3, 4, 5)
SWEEP_MUS = (0.3, 0.5, 1.0, 1.5, 1.9)
SWEEP_ALPHAS = (0.5, 1.0, 4.0)
SWEEP_LMAX = 6


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _sweep_channels():
    for d in SWEEP_DIMS:
        for mu in SWEEP_MUS:
            for alpha in SWEEP_ALPHAS:
                params = PotentialParams(d=d, mu=mu, alpha=alpha)
                for l in range(SWEEP_LMAX + 1):
                    yield params, make_channel(params, l)


@pytest.fixture(scope="module")
def sweep():
    """Full numeric-versus-closed-form sweep, shared by criteria 2 and 3."""
    rows = []
    for params, ch in _sweep_channels():
        sample, fit = solve_channel(ch)
        pa = fit.phase_amplitude
        d_closed = closed_form_phase(ch)
        c_closed = closed_form_amplitude(ch)
        try:
            variant_ratio = closed_form_amplitude_variant(ch) / pa.amplitude_C
        except ValueError:
            variant_ratio = None
        rows.append({
            "params": params,
            "channel": ch,
            "phase_dev": abs(circular_difference(pa.phase_D, d_closed)),
            "amp_rel_dev": abs(pa.amplitude_C / c_closed - 1.0),
            "variant_ratio": variant_ratio,
            "n_steps": sample.n_steps,
            "match_at_window_start": (
                fit.r_lo == _radius_at(ch, default_theta_window(ch)[0])
                and fit.theta_lo == ch.b * fit.r_lo ** ch.sigma),
        })
    return rows


def test_criterion_1_theorem_identity_channel_level():
    t0 = time.time()
    worst = 0.0
    for d in IDENTITY_DIMS:
        for mu in IDENTITY_MUS:
            report = verify_theorem_identity(PotentialParams(d=d, mu=mu, alpha=1.0), 100)
            worst = max(worst, report.max_difference)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-12 and elapsed < 10.0,
            f"max |via_phase - via_multiplier| = {worst:.3e} over "
            f"d in {IDENTITY_DIMS}, mu in {IDENTITY_MUS}, l <= 100 "
            f"(tol 1e-12; {elapsed:.2f}s)")


def test_criterion_2_tail_numeric_vs_closed_form(sweep):
    worst_phase = max(row["phase_dev"] for row in sweep)
    worst_amp = max(row["amp_rel_dev"] for row in sweep)
    ok = worst_phase <= 1e-4 and worst_amp <= 1e-4
    _report(2, ok,
            f"{len(sweep)} channels: max |dD| = {worst_phase:.3e} rad, "
            f"max |dC|/C = {worst_amp:.3e} (tol 1e-4 each)")


def test_sweep_accuracy_gate(sweep):
    # tighter than criterion 2: pins the accuracy of the match at 1.5 times
    # the turning point, checked over the one period after it and reached by
    # the Riccati march across the forbidden zone and the linear march after it
    worst_phase = max(row["phase_dev"] for row in sweep)
    worst_amp = max(row["amp_rel_dev"] for row in sweep)
    assert worst_phase <= 1e-9 and worst_amp <= 1e-9, (
        f"max |dD| = {worst_phase:.3e} rad (tol 1e-9), "
        f"max |dC|/C = {worst_amp:.3e} (tol 1e-9)")


def test_sweep_step_budget(sweep):
    # deterministic cost guard: the Riccati march to 0.95 nu_tilde and the
    # linear march, landing on 1.5 nu_tilde and ending one period past it,
    # take 451,920 accepted steps over the 420 channels
    total = sum(row["n_steps"] for row in sweep)
    assert total <= 460_000, f"{total} accepted integrator steps (budget 460,000)"


def test_sweep_matches_at_the_declared_window_start(sweep):
    # every channel's match radius is the declared window start, and the
    # reported theta_lo is that radius' theta
    missed = [row["channel"] for row in sweep if not row["match_at_window_start"]]
    assert not missed, f"{len(missed)} channels matched elsewhere, e.g. {missed[0]}"


def test_criterion_3_amplitude_constant_reading(sweep):
    worst_amp = max(row["amp_rel_dev"] for row in sweep)
    deviations = [abs(row["variant_ratio"] - 1.0) for row in sweep
                  if row["variant_ratio"] is not None
                  and row["channel"].nu != row["params"].mu]
    max_factor_dev = max(deviations)
    ok = worst_amp <= 1e-5 and max_factor_dev > 0.1
    _report(3, ok,
            f"(2-mu) reading matches fit to {worst_amp:.3e} (tol 1e-5); "
            f"(2-nu) reading off by up to a factor {1.0 + max_factor_dev:.4g} "
            f"where nu != mu")


def test_criterion_4_closed_form_ode_residual():
    worst = 0.0
    for params, ch in _sweep_channels():
        alpha, mu = params.alpha, params.mu
        r = np.geomspace(1e-3, 1e2, 200)
        q = (ch.nu ** 2 - 0.25) / r ** 2 - alpha * r ** (-mu)
        h = np.minimum(2e-3 * r, 0.05 / np.sqrt(np.abs(q) + 1e-30))
        st = np.stack([r - 2 * h, r - h, r, r + h, r + 2 * h])
        f = closed_form_f(ch, st.ravel()).reshape(st.shape)
        fpp = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        resid = np.abs(-fpp + q * f[2])
        scale = (np.abs(fpp) + np.abs(f[2]) / r ** 2
                 + alpha * np.abs(f[2]) * r ** (-mu) + 1e-30)
        worst = max(worst, float(np.max(resid / scale)))
    _report(4, worst <= 1e-4,
            f"5-point residual of the radial equation <= {worst:.3e} "
            "on 200-point log grids in [1e-3, 1e2], all sweep channels (tol 1e-4)")


def test_criterion_5_boundary_condition():
    r = 1e-6
    worst = 0.0
    for params, ch in _sweep_channels():
        c1 = params.alpha / ((2.0 - params.mu) * (2.0 - params.mu + 2.0 * ch.nu))
        bound = 2.0 * c1 * r ** (2.0 - params.mu)
        dev = abs(boundary_normalization(ch, r) - 1.0)
        worst = max(worst, dev / bound)
    _report(5, worst <= 1.0,
            f"|r^(-nu-1/2) f - 1| <= 2|c_1| r^(2-mu) at r = 1e-6 for all sweep "
            f"channels (worst ratio {worst:.3f})")


def test_criterion_6_special_function_suite():
    failures = []
    # Bessel recurrence on a fixed grid
    rng = np.random.default_rng(2024)
    for _ in range(250):
        nu = float(rng.uniform(1.0, 60.0))
        s = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
        lhs = bessel_j(nu - 1.0, s) + bessel_j(nu + 1.0, s)
        rhs = (2.0 * nu / s) * bessel_j(nu, s)
        scale = max(abs(bessel_j(nu - 1.0, s)), abs(bessel_j(nu + 1.0, s)),
                    abs(rhs), 1e-300)
        if abs(lhs - rhs) > 1e-8 * scale:
            failures.append(f"recurrence at nu={nu}, s={s}")
    # small-argument law
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0, 15.0, 30.0, 40.0):
        product = bessel_j(nu, 1e-4) * gamma(nu + 1.0) * (2.0 / 1e-4) ** nu
        if abs(product - 1.0) > 1e-6:
            failures.append(f"small-s law at nu={nu}")
    # gamma functional equation
    for x in np.geomspace(1e-3, 40.0, 200):
        if abs(gamma(x + 1.0) - x * gamma(x)) > 1e-12 * abs(x * gamma(x)):
            failures.append(f"gamma functional equation at x={x}")
    # half-order closed form
    for s in (0.5, 2.0, 15.0, 120.0):
        exact = math.sqrt(2.0 / (math.pi * s)) * math.sin(s)
        if abs(bessel_j(0.5, s) - exact) > 1e-10 * math.sqrt(2.0 / (math.pi * s)):
            failures.append(f"half-order closed form at s={s}")
    # first zero of J_0 from the independent series evaluator
    zero = bisect_root(lambda s: bessel_j_series_only(0.0, s), 2.0, 3.0)
    if abs(zero - 2.404825557695773) > 1e-9:
        failures.append("first zero of J_0")
    _report(6, not failures,
            "Bessel recurrence, small-s law, gamma functional equation, "
            "half-order closed form, first J_0 zero at 2.404825557695773 +/- 1e-9"
            + ("" if not failures else f"; failures: {failures[:3]}"))


def test_criterion_7_unitarity_and_norm_preservation():
    worst_mod = 0.0
    for d in IDENTITY_DIMS:
        for mu in IDENTITY_MUS:
            p = PotentialParams(d=d, mu=mu, alpha=1.0)
            for l in range(101):
                worst_mod = max(worst_mod,
                                abs(abs(eigenvalue_via_multiplier(p, l)) - 1.0))
    rng = np.random.default_rng(99)
    worst_norm = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        p = PotentialParams(d=d, mu=float(rng.uniform(0.05, 1.95)),
                            alpha=float(rng.uniform(0.1, 10.0)))
        lmax = int(rng.integers(0, 8))
        entries = tuple(
            (l, m, complex(rng.standard_normal(), rng.standard_normal()))
            for l in range(lmax + 1)
            for m in range(min(harmonic_dim(d, l), 3))
        )
        coeffs = HarmonicCoefficients(d=d, entries=entries, max_order=lmax)
        out = apply_s0(p, coeffs)
        worst_norm = max(worst_norm, abs(out.norm / coeffs.norm - 1.0))
    ok = worst_mod <= 1e-12 and worst_norm <= 1e-12
    _report(7, ok,
            f"max | |eigenvalue| - 1 | = {worst_mod:.3e}, max relative norm "
            f"change = {worst_norm:.3e} over 100 random inputs (tol 1e-12)")


def test_criterion_8_cli_contract(capsys, monkeypatch, tmp_path):
    failures = []

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    # determinism
    argv = ["verify", "-d", "3", "--mu", "1.0", "--format", "json"]
    code_a, out_a = run(argv)
    code_b, out_b = run(argv)
    if not (code_a == code_b == EXIT_OK and out_a == out_b):
        failures.append("determinism")
    # round trip at full precision
    base = ["phase-table", "-d", "3", "--mu", "0.7", "--alpha", "2.0", "--lmax", "3"]
    _, csv_out = run(base + ["--format", "csv"])
    _, json_out = run(base + ["--format", "json"])
    rows = json.loads(json_out)["rows"]
    lines = csv_out.strip().split("\n")
    header = lines[0].split(",")
    for line, row in zip(lines[1:], rows):
        for col, cell in zip(header, line.split(",")):
            if isinstance(row[col], float) and float(cell) != row[col]:
                failures.append(f"round trip {col}")
    # exit codes
    if run(["eigenvalues", "-d", "3", "--mu", "1.0", "--lmax", "1"])[0] != EXIT_OK:
        failures.append("exit 0")
    code_bad, _ = cli_main(["phase-table", "-d", "1", "--mu", "1.0",
                            "--alpha", "1.0"]), capsys.readouterr()
    if code_bad != EXIT_INVALID:
        failures.append("exit 2 on invalid input")
    strict = tmp_path / "strict.cfg"
    strict.write_text("dims = 3\nmus = 0.7\ntol_route = 1e-30\n")
    if run(["verify", "--config", str(strict)])[0] != EXIT_TOLERANCE:
        failures.append("exit 1 on tolerance failure")
    # mutation canary: flip the sign of the pi/4 term in the phase
    original = closedform.closed_form_phase
    monkeypatch.setattr(
        closedform, "closed_form_phase",
        lambda ch: closedform.reduce_angle(original(ch) - math.pi / 2.0))
    code_canary, _ = run(["verify", "-d", "3", "--mu", "1.0"])
    monkeypatch.undo()
    if code_canary == EXIT_OK:
        failures.append("canary not detected")
    _report(8, not failures,
            "determinism, CSV/JSON round trip, exit codes 0/1/2, and the "
            "phase-sign mutation canary"
            + ("" if not failures else f"; failures: {failures}"))
