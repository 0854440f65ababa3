"""Canary tests of the benchmark's own checks.

Each test patches zescat in-process with a known fault (nothing under
``src/`` is edited) and shows that the matching workload reports failed
operations, or that the traced run reports a route-independence breach.
Run from the root of the repository:

    python3 -m pytest -q perfbench/test_canaries.py
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from zescat import PotentialParams, closedform, make_channel, numeric  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def one_round(name: str, out_dir: Path, seed: int = 3) -> set:
    """Run one untraced round of a workload; return its failed operations."""
    wl = workloads.WORKLOADS[name](seed, out_dir)
    _, first, _ = bench.measure(wl, 0.0, trace=False)
    failed, _ = wl.check(first)
    return failed | wl.recheck(first)


def ops_of(name: str, out_dir: Path, command: str) -> set:
    wl = workloads.WORKLOADS[name](3, out_dir)
    return {i for i, op in enumerate(wl.ops) if op[0] == command}


def test_cli_reports_pass_on_the_program_as_is(tmp_path):
    assert one_round("cli_reports", tmp_path) == set()


def test_phase_sign_canary_fails_cli_reports(tmp_path, monkeypatch):
    # criterion 8's mutation: the pi/4 term of the tail phase flips sign
    original = closedform.closed_form_phase
    monkeypatch.setattr(closedform, "closed_form_phase",
                        lambda ch: closedform.reduce_angle(original(ch) - math.pi / 2.0))
    failed = one_round("cli_reports", tmp_path)
    assert ops_of("cli_reports", tmp_path, "phase-table") <= failed
    assert ops_of("cli_reports", tmp_path, "verify") <= failed
    assert not ops_of("cli_reports", tmp_path, "eigenvalues") & failed


def test_closed_form_amplitude_canary_fails_cli_reports(tmp_path, monkeypatch):
    original = closedform.closed_form_amplitude
    monkeypatch.setattr(closedform, "closed_form_amplitude",
                        lambda ch: original(ch) * (1.0 + 1e-4))
    failed = one_round("cli_reports", tmp_path)
    assert failed == ops_of("cli_reports", tmp_path, "phase-table")


@pytest.mark.parametrize("scale, shift", [(1.0 + 1e-4, 0.0), (1.0, 2e-5)])
def test_fitted_amplitude_and_phase_canaries_fail_numeric(tmp_path, monkeypatch,
                                                          scale, shift):
    original = numeric.extract_phase_amplitude

    def skewed(*args, **kwargs):
        fit = original(*args, **kwargs)
        pa = fit.phase_amplitude
        return dataclasses.replace(fit, phase_amplitude=closedform.PhaseAmplitude(
            amplitude_C=pa.amplitude_C * scale, phase_D=pa.phase_D + shift))

    monkeypatch.setattr(numeric, "extract_phase_amplitude", skewed)
    failed = one_round("numeric_low_order", tmp_path)
    assert failed == set(range(len(workloads.LOW_ORDER_CHANNELS)))


def test_bessel_canary_fails_closed_form_profile(tmp_path, monkeypatch):
    original = closedform.bessel_j
    monkeypatch.setattr(closedform, "bessel_j",
                        lambda order, s: original(order, s) * (1.0 + 1e-8))
    failed = one_round("closed_form_profile", tmp_path)
    assert len(failed) == sum(1 for _ in workloads.sweep_channels())


def test_route_independence_breach_is_counted(monkeypatch):
    ch = make_channel(PotentialParams(d=2, mu=1.0, alpha=1.0), 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        numeric.solve_channel(ch)
    assert dict(tracer.route_violations) == {}

    original = numeric.extract_phase_amplitude

    def peeking(ch, *args, **kwargs):
        closedform.closed_form_phase(ch)
        return original(ch, *args, **kwargs)

    monkeypatch.setattr(numeric, "extract_phase_amplitude", peeking)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        numeric.solve_channel(ch)
    assert dict(tracer.route_violations) == {"closedform.closed_form_phase": 1}
