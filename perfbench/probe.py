"""CPU-speed probe: express measured intervals at one reference speed.

The benchmark shares a two-core virtual machine with other tenants, whose
load slows this process by up to 2x for tens of seconds at a time (a
fixed pure-Python loop, timed back to back for 40 s, ran 1.07x to 1.68x
its fastest time from one second to the next). Wall times of 15-second
runs then spread by 20-45% between runs (quartile distance over median),
far above any useful regression bound.

The probe times two fixed loops every ``PERIOD_S`` seconds from a SIGALRM
handler, so samples are taken during the operations themselves:

* ``float``: Python float arithmetic and ``math.sqrt``, like the DOPRI5
  stepper of the numeric route;
* ``array``: numpy element reads and writes with float arithmetic, like
  the Bessel recurrences, and the best match found for the CLI's report
  building.

A workload names the loop that tracks it. Between runs of 12 s with six
seeds, the quartile spread of the scaled round time was 1.5% with
``float`` and 7.5% with ``array`` on numeric_low_order, and 3.0% with
``array`` and 7.8% with ``float`` on cli_reports, against 19% and 26%
unscaled.

An interval [a, b] is reported as the time it would have taken at the
reference speed: its length, minus the probe's own time inside it, times
the mean speed (nominal loop time / loop time) of the samples in and
around it. A change to zescat moves the interval and leaves the loops
alone, so a speed-up shows in full; a slow spell of the machine slows
both and cancels.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
# Operations shorter than a few periods borrow samples from either side.
MARGIN_S = 0.1

_SCRATCH = np.zeros(64)


def _array_loop() -> float:
    a = _SCRATCH
    t0 = time.perf_counter()
    for i in range(400):
        a[i & 63] = a[(i + 1) & 63] * 0.5 + 1.0
    return time.perf_counter() - t0


def _float_loop() -> float:
    x, y = 1.0, 0.5
    t0 = time.perf_counter()
    for i in range(300):
        x = x * 0.999 + math.sqrt(y + i) - y / (x + 1.0)
    return time.perf_counter() - t0


# Loop times on a quiet core of the reference machine: a little above the
# fastest of 20000 back-to-back runs (8.8e-5 s and 3.35e-5 s).
NOMINAL_S = {"array": 9.0e-5, "float": 3.4e-5}
LOOPS = {"array": _array_loop, "float": _float_loop}


class SpeedProbe:
    """Periodic speed samples; use as a context manager around the run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations = {kind: [] for kind in LOOPS}
        self._previous = None

    def _tick(self, signum, frame):
        self.starts.append(time.perf_counter())
        for kind, loop in LOOPS.items():
            self.durations[kind].append(loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, kind: str, a: float, b: float) -> float:
        """Seconds that [a, b] (perf_counter values) take at reference
        speed, as measured by the ``kind`` loop."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        busy = sum(sum(d[i:j]) for d in self.durations.values())
        lo = bisect.bisect_left(self.starts, a - MARGIN_S)
        hi = bisect.bisect_left(self.starts, b + MARGIN_S)
        samples = self.durations[kind]
        window = samples[lo:hi] or samples[-5:]
        if not window:
            raise RuntimeError("speed probe took no samples")
        nominal = NOMINAL_S[kind]
        return (b - a - busy) * sum(nominal / d for d in window) / len(window)
