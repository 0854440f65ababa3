#!/usr/bin/env python3
"""zescat benchmark: one workload per process, outputs checked, metrics printed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload numeric_low_order --seed 1 \\
        --seconds 20 --trace 0

The process builds the workload's inputs from ``--seed``, makes one
untimed warm-up call, then runs whole rounds of the workload's operations
until ``--seconds`` have passed (at least one round). Every operation's
output is checked against an independent reference (first round) and
against the first round bit for bit (later rounds). With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and reports the per-layer metrics of the traced rounds,
per round. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the tail fit's least squares is the only BLAS call, and
# a second thread on a shared two-core machine adds noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_program():
    """Put the checkout's zescat sources first on the path and import them."""
    if not (SRC / "zescat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zescat sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import zescat
    if Path(zescat.__file__).resolve().parent != SRC / "zescat":
        raise SystemExit(f"perfbench: imported zescat from {zescat.__file__}, not {SRC}")


def _run_round(wl, errors: dict):
    """Run every operation once; return outputs and (start, end) times."""
    outputs, spans = [], []
    for op in wl.ops:
        if wl.fresh_heap_per_op:
            gc.collect()
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # noqa: BLE001 - a fault fails the operation
            spans.append((t0, time.perf_counter()))
            errors[repr(exc)] = errors.get(repr(exc), 0) + 1
            outputs.append(exc)
            continue
        spans.append((t0, time.perf_counter()))
        outputs.append(wl.collect(op, result))
    return outputs, spans


def measure(wl, seconds: float, trace: bool):
    """Run rounds for ``seconds``; return rounds, first outputs and tracer."""
    import tracing

    tracer = tracing.Tracer() if trace else None
    errors: dict = {}
    rounds = []            # (traced, op spans, indices that differ from round 1)
    first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        ctx = tracing.installed(tracer) if traced else contextlib.nullcontext()
        if traced:
            tracer.record_bessel = len(rounds) == 1
        # start each round from a collected heap, so that a collection
        # owed to the previous round's garbage is not charged to this one
        gc.collect()
        with ctx:
            outputs, spans = _run_round(wl, errors)
        if first is None:
            first = outputs
            differ = set()
        else:
            differ = {i for i, (a, b) in enumerate(zip(outputs, first))
                      if isinstance(a, Exception) or a != b}
        rounds.append((traced, spans, differ))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(rounds) % 2 == 0):
            break
    for msg, n in errors.items():
        print(f"perfbench: {n} operation(s) raised {msg}", file=sys.stderr)
    return rounds, first, tracer


def _median_rounds(rounds, traced: bool, scale):
    """Median round time and per-operation medians, each span scaled."""
    times = [[scale(a, b) for a, b in spans] for tr, spans, _ in rounds if tr == traced]
    per_op = [statistics.median(col) for col in zip(*times)]
    return statistics.median(sum(t) for t in times), per_op


def per_layer(tracer, scale, n_traced: int, speed: float, wall_traced: float,
              wall_plain: float) -> dict:
    """Per-layer metrics, per traced round, with times at the probe's
    reference speed: ``speed`` is the traced rounds' scaled over raw time,
    and ``scale`` times the per-band Bessel replay."""
    import numpy as np

    from zescat import specfn
    from workloads import bessel_bands

    def per_round(x):
        return x / n_traced

    def span(name, what):
        if what == "calls":
            return per_round(tracer.calls.get(name, 0)), "count"
        table = tracer.total if what == "s" else tracer.self_time
        return speed * per_round(table.get(name, 0.0)), "s"

    m = {}
    for name, whats in (
            ("numeric.solve_channel", ("calls", "s", "self_s")),
            ("numeric.integrate_radial", ("s",)),
            ("numeric.extract_phase_amplitude", ("s",)),
            ("numeric.frobenius_seed", ("s",)),
            ("specfn.bessel_j", ("calls", "s")),
            ("closedform.closed_form_f", ("calls", "self_s")),
            ("closedform.boundary_normalization", ("s",)),
            ("closedform.closed_form_phase", ("calls", "s")),
            ("closedform.closed_form_amplitude", ("calls", "s")),
            ("smatrix.verify_theorem_identity", ("s",)),
            ("smatrix.eigenvalue_via_multiplier", ("calls", "s")),
            ("channels.make_channel", ("calls", "s")),
            ("cli.main", ("calls", "s", "self_s"))):
        for what in whats:
            m[f"{name}.{what}"] = span(name, what)
    c = tracer.counts
    steps = c["steps"]
    m["numeric.integrate_radial.steps"] = (per_round(steps), "count")
    m["numeric.integrate_radial.rejected"] = (per_round(c["rejected"]), "count")
    m["numeric.integrate_radial.us_per_step"] = (
        1e6 * speed * tracer.total["numeric.integrate_radial"] / steps if steps else 0.0, "us")
    m["numeric.extract_phase_amplitude.points"] = (per_round(c["fit_points"]), "count")
    m["numeric.extract_phase_amplitude.cond_max"] = (tracer.cond_max, "ratio")
    m["numeric.frobenius_seed.terms"] = (per_round(c["seed_terms"]), "count")
    m["numeric.grid.points"] = (per_round(c["grid_points"]), "count")
    # filled in from the output checks
    m["numeric.abs_dD_max"] = (0.0, "rad")
    m["numeric.rel_dC_max"] = (0.0, "ratio")
    m["numeric.closed_form_calls"] = (sum(tracer.route_violations.values()), "count")
    evals = c["bessel_evals"]
    m["specfn.bessel_j.evals"] = (per_round(evals), "count")
    m["specfn.bessel_j.us_per_eval"] = (
        1e6 * speed * tracer.total["specfn.bessel_j"] / evals if evals else 0.0, "us")
    # replay the recorded arguments of one traced round, untraced, per band
    bands = {"series": [], "transition": [], "asymptotic": []}
    for order, s in tracer.bessel_args:
        s1, s2 = bessel_bands(order)
        for band, mask in (("series", s <= s1), ("transition", (s > s1) & (s < s2)),
                           ("asymptotic", s >= s2)):
            if mask.any():
                bands[band].append((order, np.ascontiguousarray(s[mask])))
    for band, calls in bands.items():
        n = sum(s.size for _, s in calls)
        t0 = time.perf_counter()
        for order, s in calls:
            specfn.bessel_j(order, s)
        dt = scale(t0, time.perf_counter())
        m[f"specfn.bessel_j.{band}.evals"] = (float(n), "count")
        m[f"specfn.bessel_j.{band}.us_per_eval"] = (1e6 * dt / n if n else 0.0, "us")
    m["cli.bytes_out"] = (0.0, "bytes")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.untraced_wall_s"] = (wall_plain, "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import probe

    with probe.SpeedProbe() as speed:
        _import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
        wl.warm_up()
        setup_end = time.perf_counter()

        rounds, first, tracer = measure(wl, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def scale(a, b):
            return speed.scaled(wl.probe, a, b)

        setup_s = scale(_T0, setup_end)
        wall_s, per_op = _median_rounds(rounds, False, scale)
        raw_wall_s, _ = _median_rounds(rounds, False, lambda a, b: b - a)
        if args.trace:
            wall_traced, _ = _median_rounds(rounds, True, scale)
            traced = [ab for tr, spans, _ in rounds if tr for ab in spans]
            ratio = (sum(scale(a, b) for a, b in traced)
                     / sum(b - a for a, b in traced))
            n_traced = sum(1 for tr, _, _ in rounds if tr)
            metrics = per_layer(tracer, scale, n_traced, ratio,
                                wall_traced, wall_s)

    failed_ops, stats = wl.check(first)
    failed_ops |= wl.recheck(first)
    attempted = len(rounds) * len(wl.ops)
    failed = sum(len(failed_ops | differ) for _, _, differ in rounds)

    correct = True
    if args.trace:
        metrics.update((k, v) for k, v in stats.items() if k in metrics)
        correct = metrics["numeric.closed_form_calls"][0] == 0
        for name, n in sorted(tracer.route_violations.items()):
            print(f"perfbench: route independence: {name} called {n} times "
                  "inside numeric.solve_channel", file=sys.stderr)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = {name: {"calls": tracer.calls[name], "s": tracer.total[name],
                        "self_s": tracer.self_time[name], "rounds": n_traced}
                 for name in sorted(tracer.calls)}
        (OUT / f"trace-{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "spans": spans}, indent=1) + "\n")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "op_median_s": (statistics.median(per_op), "s"),
            "op_max_s": (max(per_op), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"{'rounds':<44} {len(rounds):>16d}")
    print(f"{'raw wall time of a round (not scaled)':<44} {raw_wall_s:>16.6g} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
