"""Command-line interface.

Subcommands
-----------
phase-table
    Per-channel table of the closed-form tail phase and amplitude, with
    optional numeric cross-check columns.
verify
    Route-agreement check of the S(0) eigenvalues (always) plus, with
    ``--numeric``, the full numeric-versus-closed-form sweep.
eigenvalues
    S(0) eigenvalues per channel via the spectral multiplier.

Each subcommand accepts only the options it reads, and a ``--config``
file only the keys in ``CONFIG_KEYS`` for its command. Exit codes: 0 all
checks passed, 1 a tolerance was exceeded, 2 invalid input (an option or
key the command does not read and an unwritable ``--out`` path
included), 3 the numeric route could not produce a result for a valid
channel (one line on stderr names the channel and the reason; no report
is written). Machine output is deterministic: identical configuration
produces byte-identical bytes, numbers are printed with shortest
round-trip precision, and angles are in radians (``--degrees`` affects the
human format only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import closedform, numeric, smatrix
from .channels import ParameterError, PotentialParams, make_channel

__all__ = ["main"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

# Built-in verification grids. The identity part (route agreement) runs on
# a wider envelope than the numeric sweep. A verify --config file can
# override any of these keys.
DEFAULT_GRID = {
    "identity_dims": (2, 3, 4, 5, 6),
    "identity_mus": (0.1, 0.3, 0.5, 1.0, 1.5, 1.9),
    "lmax_identity": 100,
    "dims": (2, 3, 4, 5),
    "mus": (0.3, 0.5, 1.0, 1.5, 1.9),
    "alphas": (0.5, 1.0, 4.0),
    "lmax": 6,
}
TOL_ROUTE = 1e-12
TOL_PHASE = 1e-4
# every config key with its default, whose type a config value is parsed
# to; the amplitude tolerance tracks the phase tolerance unless it is set
_DEFAULTS = {**DEFAULT_GRID, "tol_phase": TOL_PHASE, "tol_amp": TOL_PHASE,
             "tol_route": TOL_ROUTE}
# the config keys each command reads; any other key is invalid input
CONFIG_KEYS = {
    "phase-table": ("tol_phase", "tol_amp"),
    "verify": tuple(_DEFAULTS),
}


class NumericRouteError(Exception):
    """The numeric route failed on a valid channel (exit code 3)."""


def _load_config(path: str, keys) -> dict:
    """Parse a simple ``key = value`` override file (comma-separated lists)
    that may set only ``keys``."""
    overrides: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in keys:
                raise ValueError(f"{where}: unknown key {key!r} "
                                 f"(expected one of {', '.join(keys)})")
            default = _DEFAULTS[key]
            is_list = isinstance(default, tuple)
            convert = type(default[0] if is_list else default)
            try:
                parsed = (tuple(map(convert, value.split(","))) if is_list
                          else convert(value))
            except ValueError:
                raise ValueError(f"{where}: malformed value {value!r} for {key}") from None
            if convert is int and not is_list and parsed < 0:
                raise ValueError(f"{where}: {key} must be >= 0, got {value}")
            # a NaN tolerance fails every comparison, so no result meets it
            if (convert is float and not is_list
                    and not (math.isfinite(parsed) and parsed > 0.0)):
                raise ValueError(f"{where}: {key} must be finite and > 0, "
                                 f"got {value}")
            overrides[key] = parsed
    return overrides


# ---------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------

def _format_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _format_human(title: str, config: dict, columns, rows, summary: dict,
                  degrees: bool, angle_columns=()) -> str:
    lines = [f"# {title}"]
    for k, v in config.items():
        lines.append(f"# {k} = {v}")
    conv = 180.0 / math.pi if degrees else 1.0
    unit = "deg" if degrees else "rad"
    shown = [f"{c}[{unit}]" if c in angle_columns else c for c in columns]
    table = [shown]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col)
            if v is None:
                cells.append("-")
            elif isinstance(v, float):
                if col in angle_columns:
                    v = v * conv
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    for r in table:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    for k, v in summary.items():
        lines.append(f"# {k} = {v}")
    return "\n".join(lines) + "\n"


def _render(args, title: str, config: dict, columns, rows, summary: dict,
            angle_columns=()) -> None:
    """Write the report in ``args.format`` to ``args.out`` or stdout."""
    if args.format == "json":
        text = json.dumps({"config": config, "rows": rows, "summary": summary},
                          indent=2) + "\n"
    elif args.format == "csv":
        text = _format_csv(columns, rows)
    else:
        text = _format_human(title, config, columns, rows, summary,
                             getattr(args, "degrees", False), angle_columns)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _lmax(args, default):
    """``--lmax`` or ``default``; phase-table and eigenvalues call this after
    validating their parameters, verify before validating its grid."""
    if args.lmax is None:
        return default
    if args.lmax < 0:
        raise ParameterError(f"lmax must be >= 0, got {args.lmax}")
    return args.lmax


def _tolerances(conf: dict) -> tuple[float, float]:
    """(tol_phase, tol_amp); tol_amp tracks tol_phase unless it is set."""
    tol_phase = conf.get("tol_phase", TOL_PHASE)
    return tol_phase, conf.get("tol_amp", tol_phase)


def _closed_columns(ch) -> dict:
    """Closed-form D and C of ``ch``; C is None once it leaves double range."""
    try:
        c_closed = closedform.closed_form_amplitude(ch)
    except OverflowError:
        c_closed = None
    return {"D_closed": closedform.closed_form_phase(ch), "C_closed": c_closed}


def _numeric_columns(ch, closed: dict) -> dict:
    """Numeric-route (D, C) of ``ch`` and its deviations from ``closed``.

    rel_dC is None where the closed-form C is. Raises NumericRouteError
    when the numeric route cannot produce a result for the channel.
    """
    try:
        _, fit = numeric.solve_channel(ch)
    except (numeric.IntegrationError, numeric.TailFitError, ValueError,
            OverflowError) as exc:
        raise NumericRouteError(
            f"d = {ch.d}, mu = {ch.mu!r}, alpha = {ch.alpha!r}, l = {ch.l}: {exc}"
        ) from None
    pa = fit.phase_amplitude
    c_closed = closed["C_closed"]
    return {
        "D_numeric": pa.phase_D,
        "C_numeric": pa.amplitude_C,
        "abs_dD": abs(numeric.circular_difference(pa.phase_D, closed["D_closed"])),
        "rel_dC": (abs(pa.amplitude_C / c_closed - 1.0)
                   if c_closed is not None else None),
        "fit_residual_rms": fit.residual_rms,
    }


def _worst_deviations(rows) -> tuple[float, float]:
    """Largest abs_dD and rel_dC over ``rows`` (0 if none), skipping None."""
    return (max([0.0, *(row["abs_dD"] for row in rows)]),
            max([0.0, *(row["rel_dC"] for row in rows
                        if row["rel_dC"] is not None)]))


def cmd_phase_table(args, conf: dict) -> int:
    params = PotentialParams(d=args.dim, mu=args.mu, alpha=args.alpha)
    l_max = _lmax(args, 10)
    tol_phase, tol_amp = _tolerances(conf)
    rows = []
    for l in range(l_max + 1):
        ch = make_channel(params, l)
        row = {"l": l, "nu": ch.nu, "nu_tilde": ch.nu_tilde, **_closed_columns(ch)}
        if args.numeric:
            row.update(_numeric_columns(ch, row))
        rows.append(row)
    columns = ["l", "nu", "nu_tilde", "D_closed", "C_closed"]
    worst_phase = worst_amp = None
    ok = True
    if args.numeric:
        columns += ["D_numeric", "C_numeric", "abs_dD", "rel_dC",
                    "fit_residual_rms"]
        worst_phase, worst_amp = _worst_deviations(rows)
        ok = worst_phase <= tol_phase and worst_amp <= tol_amp
    config = {
        "command": "phase-table",
        "d": params.d, "mu": params.mu, "alpha": params.alpha,
        "lmax": l_max, "numeric": args.numeric,
        "tol_phase": tol_phase, "tol_amp": tol_amp,
    }
    summary = {"max_abs_dD": worst_phase, "max_rel_dC": worst_amp, "pass": ok}
    _render(args, "phase table", config, columns, rows, summary,
            angle_columns=("D_closed", "D_numeric"))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_eigenvalues(args, conf: dict) -> int:
    params = PotentialParams(d=args.dim, mu=args.mu, alpha=args.alpha)
    l_max = _lmax(args, 10)
    rows = []
    for l in range(l_max + 1):
        ev = smatrix.eigenvalue_via_multiplier(params, l)
        rows.append({
            "l": l,
            "re": ev.real,
            "im": ev.imag,
            "arg": closedform.reduce_angle(math.atan2(ev.imag, ev.real)),
        })
    config = {
        "command": "eigenvalues",
        "d": params.d, "mu": params.mu, "alpha": params.alpha,
        "lmax": l_max,
    }
    _render(args, "S(0) eigenvalues", config, ["l", "re", "im", "arg"],
            rows, {"pass": True}, angle_columns=("arg",))
    return EXIT_OK


def cmd_verify(args, conf: dict) -> int:
    grid = {**DEFAULT_GRID, **conf}
    if args.dim is not None:
        grid["dims"] = grid["identity_dims"] = (args.dim,)
    if args.mu is not None:
        grid["mus"] = grid["identity_mus"] = (args.mu,)
    if args.alpha is not None:
        grid["alphas"] = (args.alpha,)
    l_max = _lmax(args, None)
    if l_max is not None:
        grid["lmax"] = grid["lmax_identity"] = l_max
    # constructing params validates user-supplied values early
    for d in set(grid["dims"]) | set(grid["identity_dims"]):
        for mu in set(grid["mus"]) | set(grid["identity_mus"]):
            for alpha in grid["alphas"]:
                PotentialParams(d=d, mu=mu, alpha=alpha)
    tol_phase, tol_amp = _tolerances(conf)
    tol_route = conf.get("tol_route", TOL_ROUTE)

    identity_rows = []
    max_route = 0.0
    for d in grid["identity_dims"]:
        for mu in grid["identity_mus"]:
            params = PotentialParams(d=d, mu=mu, alpha=1.0)
            report = smatrix.verify_theorem_identity(params,
                                                     grid["lmax_identity"])
            for l, (diff, ev) in enumerate(zip(report.differences,
                                               report.eigenvalues)):
                identity_rows.append({
                    "check": "identity", "d": d, "mu": mu,
                    "alpha": None, "l": l,
                    "re": ev.real, "im": ev.imag,
                    "route_diff": diff,
                })
            max_route = max(max_route, report.max_difference)

    numeric_rows = []
    max_variant = 0.0
    if args.numeric:
        for d in grid["dims"]:
            for mu in grid["mus"]:
                for alpha in grid["alphas"]:
                    params = PotentialParams(d=d, mu=mu, alpha=alpha)
                    for l in range(grid["lmax"] + 1):
                        ch = make_channel(params, l)
                        num = _numeric_columns(ch, _closed_columns(ch))
                        try:
                            variant = closedform.closed_form_amplitude_variant(ch)
                            variant_ratio = variant / num["C_numeric"]
                        except (ValueError, OverflowError):
                            variant_ratio = None
                        numeric_rows.append({
                            "check": "sweep", "d": d, "mu": mu,
                            "alpha": alpha, "l": l,
                            "abs_dD": num["abs_dD"], "rel_dC": num["rel_dC"],
                            "fit_residual_rms": num["fit_residual_rms"],
                            "variant_amplitude_ratio": variant_ratio,
                        })
                        if variant_ratio is not None and ch.nu != mu:
                            max_variant = max(max_variant,
                                              abs(variant_ratio - 1.0))

    ok = max_route <= tol_route
    max_phase = max_amp = None
    if args.numeric:
        max_phase, max_amp = _worst_deviations(numeric_rows)
        ok = ok and max_phase <= tol_phase and max_amp <= tol_amp
    config = {
        "command": "verify",
        "identity_dims": list(grid["identity_dims"]),
        "identity_mus": list(grid["identity_mus"]),
        "lmax_identity": grid["lmax_identity"],
        "dims": list(grid["dims"]) if args.numeric else None,
        "mus": list(grid["mus"]) if args.numeric else None,
        "alphas": list(grid["alphas"]) if args.numeric else None,
        "lmax": grid["lmax"] if args.numeric else None,
        "numeric": args.numeric,
        "tol_route": tol_route,
        "tol_phase": tol_phase, "tol_amp": tol_amp,
    }
    summary = {
        "max_route_diff": max_route,
        "max_abs_dD": max_phase,
        "max_rel_dC": max_amp,
        "max_variant_amplitude_deviation": max_variant if args.numeric else None,
        "pass": ok,
    }
    columns = ["check", "d", "mu", "alpha", "l", "re", "im", "route_diff",
               "abs_dD", "rel_dC", "fit_residual_rms",
               "variant_amplitude_ratio"]
    _render(args, "verification report", config, columns,
            identity_rows + numeric_rows, summary)
    return EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zescat",
        description="Zero-energy scattering phase shifts and S(0) for the "
                    "potential -alpha |x|^(-mu).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = sub.add_parser("phase-table", help="tail phase/amplitude table")
    eigen = sub.add_parser("eigenvalues", help="S(0) eigenvalue table")
    verify = sub.add_parser("verify", help="route-agreement and sweep checks")

    for p in (table, eigen):
        p.add_argument("-d", "--dim", type=int, required=True,
                       help="space dimension d >= 2")
        p.add_argument("--mu", type=float, required=True,
                       help="potential exponent, 0 < mu < 2")
        p.add_argument("--alpha", type=float, default=1.0,
                       help="coupling strength alpha > 0 (default 1)")
    verify.add_argument("-d", "--dim", type=int, default=None)
    verify.add_argument("--mu", type=float, default=None)
    verify.add_argument("--alpha", type=float, default=None)
    for p in (table, eigen, verify):
        p.add_argument("--lmax", type=int, default=None,
                       help="largest angular momentum")
        p.add_argument("--format", choices=("json", "csv", "human"),
                       default="human")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    for command, p in (("phase-table", table), ("verify", verify)):
        p.add_argument("--numeric", action="store_true",
                       help="run the numerical pipeline cross-check")
        p.add_argument("--config", default=None,
                       help="key = value file setting "
                            + ", ".join(CONFIG_KEYS[command]))
    for p in (table, eigen):
        p.add_argument("--degrees", action="store_true",
                       help="show angles in degrees (human format only)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    command = {"phase-table": cmd_phase_table, "eigenvalues": cmd_eigenvalues,
               "verify": cmd_verify}[args.command]
    try:
        path = getattr(args, "config", None)
        conf = _load_config(path, CONFIG_KEYS[args.command]) if path else {}
        return command(args, conf)
    except NumericRouteError as exc:
        print(f"zescat: numeric route failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # OSError: an unreadable --config or unwritable --out path
    except (ParameterError, ValueError, OSError) as exc:
        print(f"zescat: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
