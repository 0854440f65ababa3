"""The four zescat workloads: inputs, operations and output checks.

Each workload builds its inputs from a seed, lists its operations (one
round), runs one operation through the module attribute a user would call,
and checks the outputs of a round against references computed apart from
the program (:mod:`references`). Operations are deterministic, so every
later round must reproduce the first round bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from zescat import cli, closedform, numeric
from zescat.channels import PotentialParams, make_channel

import references as ref

# The verification sweep of `zescat verify --numeric`.
SWEEP_DIMS = (2, 3, 4, 5)
SWEEP_MUS = (0.3, 0.5, 1.0, 1.5, 1.9)
SWEEP_ALPHAS = (0.5, 1.0, 4.0)
SWEEP_LMAX = 6

# (d, mu, l) at mu = 1.9: nu_tilde = 30, 50, 80. The alpha of each comes
# from the seed; the step count moves by under 1% across the sweep alphas.
HIGH_ORDER_CHANNELS = ((3, 1.9, 1), (5, 1.9, 1), (4, 1.9, 3))

# (d, mu, l) whose fit window ends at the floor theta_max = 300 for every
# sweep alpha: nu_tilde <= 12.
LOW_ORDER_CHANNELS = (
    (2, 0.3, 0), (3, 0.3, 4), (4, 0.3, 6), (5, 0.3, 2),
    (2, 0.5, 3), (3, 0.5, 6), (4, 0.5, 1), (5, 0.5, 5),
    (2, 1.0, 6), (3, 1.0, 2), (4, 1.0, 4), (5, 1.0, 0),
    (2, 1.5, 3), (3, 1.5, 1), (4, 1.5, 0), (2, 1.9, 0),
)

# ROADMAP gate on the numeric route against the independent reference.
TOL_NUMERIC_D = 1e-5
TOL_NUMERIC_C = 1e-5

# bessel_j accuracy claimed in the specfn docstring: relative 1e-10 away
# from zeros, absolute 1e-10 (on J, whose envelope is <= 1) near them.
TOL_BESSEL = 1e-10
PROFILE_POINTS_PER_BAND = 40
PROFILE_CHECKS_PER_BAND = 2
PROFILE_ORIGIN_RADII = 3

# The identity grid of `zescat verify`, widened from l <= 100 to l <= 1000.
IDENTITY_DIMS = (2, 3, 4, 5, 6)
IDENTITY_MUS = (0.1, 0.3, 0.5, 1.0, 1.5, 1.9)
IDENTITY_LMAX = 1000
VERIFY_CONFIG = f"lmax_identity = {IDENTITY_LMAX}\n"
TABLE_LMAX = 10000
# (command, mu, alpha); the seed picks d. mu and alpha stay fixed because
# they set the row where C_closed overflows (reported as missing), which
# changes the cost of a phase-table by more than the noise.
TABLE_PARAMS = (("eigenvalues", 1.9, 1.0), ("phase-table", 1.0, 0.5))
FORMATS = ("csv", "json", "human")
TOL_UNIT = 1e-12
TOL_ROUTE = 1e-12
TOL_AMPLITUDE_CLOSED = 1e-10
HUMAN_REL = 5e-12          # "%.12g" keeps 12 significant digits
# zescat reports C_closed as missing once log(C sqrt(pi)) passes 709.0, a
# little short of the largest double, e^709.78. A missing C_closed must
# have a reference log C above LOG_DOUBLE_MAX.
LOG_DOUBLE_MAX = 708.0
LOG_DOUBLE_TOP = 709.78


def bessel_bands(order: float) -> tuple[float, float]:
    """Band edges in s for J_order(s): series below the first, asymptotic
    above the second, transition between. They follow where the evaluator
    switches regime: the power series up to max(12, order), the Hankel
    expansion once its terms fall to rounding, near s = order^2/4."""
    s1 = max(12.0, order)
    return s1, max(30.0, order * order / 4.0)


def sweep_channels():
    for d in SWEEP_DIMS:
        for mu in SWEEP_MUS:
            for alpha in SWEEP_ALPHAS:
                for l in range(SWEEP_LMAX + 1):
                    yield d, mu, alpha, l


class Workload:
    """One round of operations plus the checks of their outputs."""

    name = ""
    # collect garbage before each operation, untimed
    fresh_heap_per_op = False
    # the speed-probe loop whose instruction mix is closest (see probe.py)
    probe = "array"

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.ops: list = []

    def warm_up(self) -> None:
        """One untimed call of the workload's entry point."""

    def run(self, op):
        """The timed operation."""
        raise NotImplementedError

    def collect(self, op, result):
        """Turn a result into a comparable output (untimed)."""
        return result

    def check(self, outputs: list) -> tuple[set[int], dict]:
        """Indices of operations whose output misses a check, and stats."""
        raise NotImplementedError

    def recheck(self, outputs: list) -> set[int]:
        """Checks that need the program again, run after all rounds."""
        return set()


class NumericWorkload(Workload):
    channels: tuple = ()
    probe = "float"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        ops = []
        for d, mu, l in self.channels:
            alpha = self.rng.choice(SWEEP_ALPHAS)
            ops.append(((d, mu, alpha, l),
                        make_channel(PotentialParams(d=d, mu=mu, alpha=alpha), l)))
        self.rng.shuffle(ops)
        self.ops = ops

    def warm_up(self):
        numeric.solve_channel(make_channel(PotentialParams(d=2, mu=1.0, alpha=1.0), 0))

    def run(self, op):
        return numeric.solve_channel(op[1])

    def collect(self, op, result):
        sample, fit = result
        pa = fit.phase_amplitude
        return (pa.phase_D, pa.amplitude_C, sample.n_steps, sample.n_rejected,
                sample.r.size, fit.n_points)

    def check(self, outputs):
        failed = set()
        worst_d = worst_c = 0.0
        for i, (((d, mu, alpha, l), _), out) in enumerate(zip(self.ops, outputs)):
            if isinstance(out, Exception):
                failed.add(i)
                continue
            phase, amp = out[0], out[1]
            d_ref = ref.radians(ref.tail_phase_half_turns(d, mu, l)[0])
            c_ref = float(ref.ChannelRef(d, mu, alpha, l).amplitude())
            dd = ref.circular_distance(phase, d_ref)
            dc = abs(amp / c_ref - 1.0)
            worst_d, worst_c = max(worst_d, dd), max(worst_c, dc)
            if not (dd <= TOL_NUMERIC_D and dc <= TOL_NUMERIC_C):
                failed.add(i)
        return failed, {"numeric.abs_dD_max": (worst_d, "rad"),
                        "numeric.rel_dC_max": (worst_c, "ratio")}


class NumericHighOrder(NumericWorkload):
    name = "numeric_high_order"
    channels = HIGH_ORDER_CHANNELS


class NumericLowOrder(NumericWorkload):
    name = "numeric_low_order"
    channels = LOW_ORDER_CHANNELS


class ClosedFormProfile(Workload):
    """closed_form_f over the three Bessel bands, and the origin limit."""

    name = "closed_form_profile"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        n = PROFILE_POINTS_PER_BAND
        for d, mu, alpha, l in sweep_channels():
            ch = make_channel(PotentialParams(d=d, mu=mu, alpha=alpha), l)
            nt = ch.nu_tilde
            s1, s2 = bessel_bands(nt)
            # the series band starts at nt/10, where J_nt is still above
            # about e^(-2 nt) and so inside double range for nt <= 150
            edges = (max(0.05, nt / 10.0), s1, s2, 4.0 * s2)
            s = []
            for lo, hi in zip(edges, edges[1:]):
                step = math.log(hi / lo) / n
                s += [lo * math.exp(step * (k + 0.5 + self.rng.uniform(-0.3, 0.3)))
                      for k in range(n)]
            r = (np.array(s) / ch.b) ** (1.0 / ch.sigma)
            # r in [1e-6, 1e-4] keeps the origin bound above the rounding
            # of r^(-nu-1/2) f - 1 (about 1e-14) for every sweep channel
            r0 = np.array(sorted(10.0 ** self.rng.uniform(-6.0, -4.0)
                                 for _ in range(PROFILE_ORIGIN_RADII)))
            picks = [band * n + k for band in range(3)
                     for k in self.rng.sample(range(n), PROFILE_CHECKS_PER_BAND)]
            self.ops.append(((d, mu, alpha, l), ch, r, r0, picks))

    def warm_up(self):
        _, ch, r, r0, _ = self.ops[0]
        closedform.closed_form_f(ch, r)

    def run(self, op):
        _, ch, r, r0, _ = op
        return closedform.closed_form_f(ch, r), closedform.boundary_normalization(ch, r0)

    def collect(self, op, result):
        return tuple(np.asarray(a, dtype=float).tobytes() for a in result)

    def check(self, outputs):
        failed = set()
        for i, (key, ch, r, r0, picks) in enumerate(self.ops):
            out = outputs[i]
            if isinstance(out, Exception):
                failed.add(i)
                continue
            f = np.frombuffer(out[0])
            bn = np.frombuffer(out[1])
            cref = ref.ChannelRef(*key)
            pref = cref.prefactor()
            ok = f.shape == r.shape and bn.shape == r0.shape
            for k in picks if ok else ():
                f_ref, s_ref = cref.f(float(r[k]))
                envelope = pref * math.sqrt(r[k]) if s_ref > cref.nt else 0.0
                tol = TOL_BESSEL * max(abs(f_ref), envelope)
                ok = ok and abs(ref.mp().mpf(float(f[k])) - f_ref) <= tol
            for k in range(r0.size if ok else 0):
                ok = ok and abs(bn[k] - 1.0) <= cref.origin_bound(float(r0[k]))
            if not ok:
                failed.add(i)
        return failed, {}


def _verify_rows():
    for d in IDENTITY_DIMS:
        for mu in IDENTITY_MUS:
            for l in range(IDENTITY_LMAX + 1):
                yield d, mu, l


class CliReports(Workload):
    """verify, eigenvalues and phase-table through cli.main, three formats."""

    name = "cli_reports"
    # a CLI invocation normally starts a fresh process; without this, the
    # garbage of one 30,030-row report is collected inside the next call
    fresh_heap_per_op = True

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        config = out_dir / "verify-wide.cfg"
        config.write_text(VERIFY_CONFIG, encoding="utf-8")
        self.table_params = {}
        commands = [("verify", ["verify", "--config", str(config)])]
        for command, mu, alpha in TABLE_PARAMS:
            p = (self.rng.choice(IDENTITY_DIMS), mu, alpha)
            self.table_params[command] = p
            commands.append((command, [command, "-d", str(p[0]), "--mu", repr(p[1]),
                                       "--alpha", repr(p[2]), "--lmax", str(TABLE_LMAX)]))
        for command, argv in commands:
            for fmt in FORMATS:
                path = out_dir / f"{command}.{fmt}"
                self.ops.append((command, fmt, path,
                                 argv + ["--format", fmt, "--out", str(path)]))
        self._eig_refs: dict = {}
        self._phase_refs: dict = {}

    def warm_up(self):
        cli.main(["eigenvalues", "-d", "3", "--mu", "1.0", "--lmax", "2",
                  "--format", "json", "--out", str(self.out_dir / "warm-up.json")])

    def run(self, op):
        return cli.main(op[3])

    def collect(self, op, result):
        return result, op[2].read_bytes()

    # -- references --------------------------------------------------

    def _eig_ref(self, d, mu, l):
        key = (d, mu, l)
        if key not in self._eig_refs:
            t, raw = ref.eigen_half_turns(d, mu, l)
            self._eig_refs[key] = (ref.unit_phasor(t), ref.radians(t),
                                   ref.angle_tolerance(raw))
        return self._eig_refs[key]

    def _phase_ref(self, d, mu, alpha, l):
        key = (d, mu, alpha, l)
        if key not in self._phase_refs:
            t, raw = ref.tail_phase_half_turns(d, mu, l)
            log_c = ref.ChannelRef(d, mu, alpha, l).log_amplitude()
            c_ref = float(ref.mp().exp(log_c)) if log_c < LOG_DOUBLE_TOP else None
            self._phase_refs[key] = (ref.radians(t), ref.angle_tolerance(raw),
                                     log_c, c_ref)
        return self._phase_refs[key]

    def _row_ok(self, command, row, human: bool) -> bool:
        """Check one row against the references (human rows at 12 digits)."""
        slack = HUMAN_REL if human else 0.0

        def near(x, x_ref, tol):
            return abs(x - x_ref) <= tol + slack * abs(x_ref)

        if command == "verify":
            d, mu, l = row["d"], row["mu"], row["l"]
            e_ref, _, tol = self._eig_ref(d, mu, l)
            return (near(row["re"], e_ref.real, tol) and near(row["im"], e_ref.imag, tol)
                    and (human or abs(abs(complex(row["re"], row["im"])) - 1.0) <= TOL_UNIT)
                    and row["route_diff"] <= TOL_ROUTE)
        d, mu, alpha = self.table_params[command]
        l = row["l"]
        if command == "eigenvalues":
            e_ref, a_ref, tol = self._eig_ref(d, mu, l)
            return (near(row["re"], e_ref.real, tol) and near(row["im"], e_ref.imag, tol)
                    and (human or abs(abs(complex(row["re"], row["im"])) - 1.0) <= TOL_UNIT)
                    and (ref.circular_distance(row["arg"], a_ref) <= tol + slack * math.pi))
        d_ref, tol, log_c, c_ref = self._phase_ref(d, mu, alpha, l)
        ok = ref.circular_distance(row["D_closed"], d_ref) <= tol + slack * math.pi
        if row["C_closed"] is None:
            return ok and log_c > LOG_DOUBLE_MAX
        return (ok and c_ref is not None
                and abs(row["C_closed"] / c_ref - 1.0) <= TOL_AMPLITUDE_CLOSED + slack)

    def _expected_keys(self, command):
        if command == "verify":
            return [(d, mu, l) for d, mu, l in _verify_rows()]
        return [(l,) for l in range(TABLE_LMAX + 1)]

    @staticmethod
    def _key(command, row):
        return (row["d"], row["mu"], row["l"]) if command == "verify" else (row["l"],)

    def _parse(self, fmt, data: bytes):
        text = data.decode("utf-8")
        if fmt == "json":
            doc = json.loads(text)
            return doc["rows"], doc["summary"]["pass"]
        if fmt == "csv":
            lines = text.splitlines()
            header = lines[0].split(",")
            return [{c: _cell(v) for c, v in zip(header, line.split(","))}
                    for line in lines[1:]], None
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        header = [c.split("[")[0] for c in lines[0].split()]
        rows = [{c: _cell(v, "-") for c, v in zip(header, ln.split())} for ln in lines[1:]]
        summary = [ln for ln in text.splitlines() if ln.startswith("# pass = ")]
        return rows, summary == ["# pass = True"]

    def check(self, outputs):
        failed = set()
        by_op = {}
        bytes_out = 0
        for i, (command, fmt, _, _) in enumerate(self.ops):
            out = outputs[i]
            try:
                code, data = out
                bytes_out += len(data)
                rows, passed = self._parse(fmt, data)
                by_op[(command, fmt)] = rows
                keys = [self._key(command, row) for row in rows]
                ok = (code == cli.EXIT_OK and passed is not False
                      and keys == self._expected_keys(command)
                      and all(self._row_ok(command, row, fmt == "human") for row in rows))
            except (TypeError, ValueError, KeyError, IndexError):
                ok = False
            if not ok:
                failed.add(i)
        # CSV and JSON carry the same doubles, bit for bit
        for i, (command, fmt, _, _) in enumerate(self.ops):
            if fmt != "csv" or i in failed:
                continue
            rows_json = by_op.get((command, "json"))
            rows_csv = by_op[(command, "csv")]
            if rows_json is None or not all(
                    _bit_equal(a, b) for a, b in zip(rows_csv, rows_json)):
                failed.add(i)
        return failed, {"cli.bytes_out": (float(bytes_out), "bytes")}

    def recheck(self, outputs):
        """A second identical invocation writes identical bytes."""
        failed = set()
        for i, op in enumerate(self.ops):
            try:
                again = self.collect(op, self.run(op))
            except Exception:  # noqa: BLE001 - any fault fails the operation
                again = None
            if again != outputs[i]:
                failed.add(i)
        return failed


def _cell(v: str, missing: str = ""):
    if v == missing:
        return None
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


def _bit_equal(row_csv: dict, row_json: dict) -> bool:
    for col, v in row_csv.items():
        w = row_json.get(col)
        if isinstance(w, float) or isinstance(v, float):
            if not (isinstance(v, float) and isinstance(w, (int, float))
                    and float(w).hex() == v.hex()):
                return False
        elif v != w:
            return False
    return True


WORKLOADS = {w.name: w for w in (NumericHighOrder, NumericLowOrder,
                                 ClosedFormProfile, CliReports)}
