"""Spans around the calls between zescat's layers, recorded from outside.

The program is not edited: :func:`installed` swaps module attributes that
the layers call through (``numeric.integrate_radial``,
``closedform.bessel_j``, ``smatrix.eigenvalue_via_multiplier``, ...) for
wrappers and restores them on exit. Spans are aggregated in memory per
name as calls, total seconds and self seconds (the span minus the wrapped
spans it contains).

The same wrappers enforce route independence: every binding, in every
zescat module, of a closed-form or Bessel function counts its calls made
while ``numeric.solve_channel`` is running. That count must stay 0.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

from zescat import _kernels, channels, cli, closedform, numeric, smatrix, specfn

# (module, attribute, span name). A name listed twice is one span reached
# through two bindings.
SPANS = (
    (cli, "main", "cli.main"),
    (numeric, "solve_channel", "numeric.solve_channel"),
    (numeric, "frobenius_seed", "numeric.frobenius_seed"),
    (numeric, "integrate_radial", "numeric.integrate_radial"),
    (numeric, "extract_phase_amplitude", "numeric.extract_phase_amplitude"),
    (closedform, "closed_form_f", "closedform.closed_form_f"),
    (closedform, "boundary_normalization", "closedform.boundary_normalization"),
    (closedform, "closed_form_phase", "closedform.closed_form_phase"),
    (closedform, "closed_form_amplitude", "closedform.closed_form_amplitude"),
    (closedform, "bessel_j", "specfn.bessel_j"),
    (specfn, "bessel_j", "specfn.bessel_j"),
    (smatrix, "verify_theorem_identity", "smatrix.verify_theorem_identity"),
    (smatrix, "eigenvalue_via_multiplier", "smatrix.eigenvalue_via_multiplier"),
    (smatrix, "make_channel", "channels.make_channel"),
    (cli, "make_channel", "channels.make_channel"),
    (channels, "make_channel", "channels.make_channel"),
)

# Functions of the closed-form route: the Bessel-function algebra and the
# special functions behind it. ``closedform.reduce_angle`` and
# ``PhaseAmplitude`` are left out on purpose: they are the shared (-pi, pi]
# reduction and result type, which the numeric route imports and which use
# no Bessel algebra.
CLOSED_FORM_ROUTE = (
    closedform.closed_form_f,
    closedform.boundary_normalization,
    closedform.closed_form_amplitude,
    closedform.closed_form_amplitude_variant,
    closedform.closed_form_phase,
    closedform._prefactor,
    specfn.bessel_j,
    specfn.bessel_j_asymptotic,
    specfn.gamma,
    specfn.log_gamma,
    _kernels.bessel_j_kernel,
    _kernels.bessel_j_grid_kernel,
    _kernels.gamma_kernel,
    _kernels.lgamma_kernel,
)


class Tracer:
    """In-memory span aggregates, counters and recorded Bessel arguments."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.cond_max = 0.0
        self.route_violations = defaultdict(int)
        self.bessel_args: list[tuple[float, np.ndarray]] = []
        self.record_bessel = False
        self._children: list[float] = []
        self._numeric_depth = 0

    def _after(self, name, result, args):
        if name == "numeric.integrate_radial":
            self.counts["steps"] += result.n_steps
            self.counts["rejected"] += result.n_rejected
            self.counts["grid_points"] += result.r.size
        elif name == "numeric.extract_phase_amplitude":
            self.counts["fit_points"] += result.n_points
            self.cond_max = max(self.cond_max, result.condition_number)
        elif name == "numeric.frobenius_seed":
            self.counts["seed_terms"] += result.truncation_order + 1
        elif name == "specfn.bessel_j":
            s = np.asarray(args[1], dtype=float)
            self.counts["bessel_evals"] += s.size
            if self.record_bessel:
                self.bessel_args.append((float(args[0]), s.ravel().copy()))

    def span(self, name: str, fn, guarded: bool):
        def wrapper(*args, **kwargs):
            if guarded and self._numeric_depth:
                self.route_violations[name] += 1
            numeric_route = name == "numeric.solve_channel"
            self._numeric_depth += numeric_route
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self._numeric_depth -= numeric_route
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._children:
                    self._children[-1] += dt
            self._after(name, result, args)
            return result
        return wrapper

    def guard(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._numeric_depth:
                self.route_violations[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _zescat_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "zescat" or n.startswith("zescat.")) and m is not None
            and m is not _kernels]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the block."""
    saved = []
    route_ids = {id(fn) for fn in CLOSED_FORM_ROUTE}
    spanned = set()
    try:
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.span(name, fn, id(fn) in route_ids))
            spanned.add((id(module), attr))
        for module in _zescat_modules():
            for attr, fn in list(vars(module).items()):
                if id(fn) in route_ids and (id(module), attr) not in spanned:
                    saved.append((module, attr, fn))
                    setattr(module, attr, tracer.guard(f"{module.__name__}.{attr}", fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
