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

Exit codes: 0 all checks passed, 1 a tolerance was exceeded, 2 invalid
input, 3 the numeric route could not produce a result for a valid channel
(one line on stderr names the channel and the reason; no report is
written). Machine output is deterministic: identical configuration
produces byte-identical bytes, numbers are printed with shortest
round-trip precision, and angles are in radians (``--degrees`` affects the
human format only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import closedform, numeric, smatrix
from .channels import ParameterError, PotentialParams, make_channel

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

# Built-in verification grids. The identity part (route agreement) runs on
# a wider envelope than the numeric sweep. A --config file can override any
# of these keys.
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
TOL_AMP = 1e-4


class NumericRouteError(Exception):
    """The numeric route failed on a valid channel (exit code 3)."""


@dataclass
class RunConfig:
    """Resolved options for one command invocation."""

    params: PotentialParams | None
    l_max: int
    numeric: bool = False
    rtol: float | None = None      # integrator tolerance; None = per-channel
    tol_phase: float = TOL_PHASE
    tol_amp: float = TOL_AMP
    tol_route: float = TOL_ROUTE
    fmt: str = "human"
    out: str | None = None
    degrees: bool = False
    grid: dict = field(default_factory=dict)


def _repr_float(x) -> str:
    return repr(float(x))


def _load_config(path: str) -> dict:
    """Parse a simple ``key = value`` override file (comma-separated lists)."""
    overrides: dict = {}
    int_keys = {"lmax", "lmax_identity"}
    int_list_keys = {"dims", "identity_dims"}
    float_list_keys = {"mus", "alphas", "identity_mus"}
    float_keys = {"tol_phase", "tol_amp", "tol_route", "rtol"}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in int_list_keys:
                overrides[key] = tuple(int(v) for v in value.split(","))
            elif key in float_list_keys:
                overrides[key] = tuple(float(v) for v in value.split(","))
            elif key in int_keys:
                overrides[key] = int(value)
            elif key in float_keys:
                overrides[key] = float(value)
                if key == "rtol" and not (math.isfinite(overrides[key])
                                          and overrides[key] >= numeric._MIN_RTOL):
                    raise ValueError(f"{path}:{lineno}: rtol must be finite "
                                     f"and >= 2**-52, got {value}")
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return overrides


# ---------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

def _format_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(_repr_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _format_json(config: dict, rows, summary: dict) -> str:
    return json.dumps({"config": config, "rows": rows, "summary": summary},
                      indent=2) + "\n"


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


def _render(cfg: RunConfig, title: str, config: dict, columns, rows,
            summary: dict, angle_columns=()) -> None:
    if cfg.fmt == "json":
        text = _format_json(config, rows, summary)
    elif cfg.fmt == "csv":
        text = _format_csv(columns, rows)
    else:
        text = _format_human(title, config, columns, rows, summary,
                             cfg.degrees, angle_columns)
    _emit(text, cfg.out)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _closed_columns(ch) -> dict:
    """Closed-form D and C of ``ch``; C is None once it leaves double range."""
    try:
        c_closed = closedform.closed_form_amplitude(ch)
    except OverflowError:
        c_closed = None
    return {"D_closed": closedform.closed_form_phase(ch), "C_closed": c_closed}


def _numeric_columns(ch, rtol: float | None, closed: dict) -> dict:
    """Numeric-route (D, C) of ``ch`` and its deviations from ``closed``.

    rel_dC is None where the closed-form C is. Raises NumericRouteError
    when the numeric route cannot produce a result for the channel.
    """
    try:
        _, fit = numeric.solve_channel(ch, rtol=rtol)
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


def _phase_table_rows(cfg: RunConfig):
    params = cfg.params
    rows = []
    worst_phase = 0.0
    worst_amp = 0.0
    for l in range(cfg.l_max + 1):
        ch = make_channel(params, l)
        row = {"l": l, "nu": ch.nu, "nu_tilde": ch.nu_tilde, **_closed_columns(ch)}
        if cfg.numeric:
            row.update(_numeric_columns(ch, cfg.rtol, row))
            worst_phase = max(worst_phase, row["abs_dD"])
            if row["rel_dC"] is not None:
                worst_amp = max(worst_amp, row["rel_dC"])
        rows.append(row)
    return rows, worst_phase, worst_amp


def cmd_phase_table(cfg: RunConfig) -> int:
    rows, worst_phase, worst_amp = _phase_table_rows(cfg)
    columns = ["l", "nu", "nu_tilde", "D_closed", "C_closed"]
    if cfg.numeric:
        columns += ["D_numeric", "C_numeric", "abs_dD", "rel_dC",
                    "fit_residual_rms"]
    ok = (not cfg.numeric) or (worst_phase <= cfg.tol_phase
                               and worst_amp <= cfg.tol_amp)
    config = {
        "command": "phase-table",
        "d": cfg.params.d, "mu": cfg.params.mu, "alpha": cfg.params.alpha,
        "lmax": cfg.l_max, "numeric": cfg.numeric,
        "tol_phase": cfg.tol_phase, "tol_amp": cfg.tol_amp,
    }
    summary = {"max_abs_dD": worst_phase if cfg.numeric else None,
               "max_rel_dC": worst_amp if cfg.numeric else None,
               "pass": ok}
    _render(cfg, "phase table", config, columns, rows, summary,
            angle_columns=("D_closed", "D_numeric"))
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_eigenvalues(cfg: RunConfig) -> int:
    params = cfg.params
    rows = []
    for l in range(cfg.l_max + 1):
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
        "lmax": cfg.l_max,
    }
    _render(cfg, "S(0) eigenvalues", config, ["l", "re", "im", "arg"],
            rows, {"pass": True}, angle_columns=("arg",))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    grid = cfg.grid
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
    max_phase = 0.0
    max_amp = 0.0
    max_variant = 0.0
    if cfg.numeric:
        for d in grid["dims"]:
            for mu in grid["mus"]:
                for alpha in grid["alphas"]:
                    params = PotentialParams(d=d, mu=mu, alpha=alpha)
                    for l in range(grid["lmax"] + 1):
                        ch = make_channel(params, l)
                        num = _numeric_columns(ch, cfg.rtol, _closed_columns(ch))
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
                        max_phase = max(max_phase, num["abs_dD"])
                        if num["rel_dC"] is not None:
                            max_amp = max(max_amp, num["rel_dC"])
                        if variant_ratio is not None and ch.nu != mu:
                            max_variant = max(max_variant,
                                              abs(variant_ratio - 1.0))

    ok = max_route <= cfg.tol_route
    if cfg.numeric:
        ok = ok and max_phase <= cfg.tol_phase and max_amp <= cfg.tol_amp
    config = {
        "command": "verify",
        "identity_dims": list(grid["identity_dims"]),
        "identity_mus": list(grid["identity_mus"]),
        "lmax_identity": grid["lmax_identity"],
        "dims": list(grid["dims"]) if cfg.numeric else None,
        "mus": list(grid["mus"]) if cfg.numeric else None,
        "alphas": list(grid["alphas"]) if cfg.numeric else None,
        "lmax": grid["lmax"] if cfg.numeric else None,
        "numeric": cfg.numeric,
        "tol_route": cfg.tol_route,
        "tol_phase": cfg.tol_phase, "tol_amp": cfg.tol_amp,
    }
    summary = {
        "max_route_diff": max_route,
        "max_abs_dD": max_phase if cfg.numeric else None,
        "max_rel_dC": max_amp if cfg.numeric else None,
        "max_variant_amplitude_deviation": max_variant if cfg.numeric else None,
        "pass": ok,
    }
    columns = ["check", "d", "mu", "alpha", "l", "re", "im", "route_diff",
               "abs_dD", "rel_dC", "fit_residual_rms",
               "variant_amplitude_ratio"]
    _render(cfg, "verification report", config, columns,
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

    def add_common(p, need_params: bool):
        if need_params:
            p.add_argument("-d", "--dim", type=int, required=True,
                           help="space dimension d >= 2")
            p.add_argument("--mu", type=float, required=True,
                           help="potential exponent, 0 < mu < 2")
            p.add_argument("--alpha", type=float, default=1.0,
                           help="coupling strength alpha > 0 (default 1)")
        else:
            p.add_argument("-d", "--dim", type=int, default=None)
            p.add_argument("--mu", type=float, default=None)
            p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--lmax", type=int, default=None,
                       help="largest angular momentum")
        p.add_argument("--numeric", action="store_true",
                       help="run the numerical pipeline cross-check")
        p.add_argument("--tol-phase", type=float, default=TOL_PHASE,
                       help="phase comparison tolerance in radians")
        p.add_argument("--format", choices=("json", "csv", "human"),
                       default="human")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None,
                       help="key = value file overriding the built-in grid")
        p.add_argument("--degrees", action="store_true",
                       help="show angles in degrees (human format only)")

    add_common(sub.add_parser("phase-table", help="tail phase/amplitude table"),
               need_params=True)
    add_common(sub.add_parser("eigenvalues", help="S(0) eigenvalue table"),
               need_params=True)
    add_common(sub.add_parser("verify", help="route-agreement and sweep checks"),
               need_params=False)
    return parser


def _resolve(args) -> RunConfig:
    overrides = _load_config(args.config) if args.config else {}
    grid = {**DEFAULT_GRID, **overrides}
    tol_phase = overrides.get("tol_phase", args.tol_phase)
    cfg = RunConfig(
        params=None,
        l_max=0,
        numeric=args.numeric,
        rtol=overrides.get("rtol"),
        tol_phase=tol_phase,
        # amplitude tolerance tracks the phase tolerance unless overridden
        tol_amp=overrides.get("tol_amp", tol_phase),
        tol_route=overrides.get("tol_route", TOL_ROUTE),
        fmt=args.format,
        out=args.out,
        degrees=args.degrees,
        grid=grid,
    )
    if args.command == "verify":
        if args.dim is not None:
            grid["dims"] = (args.dim,)
            grid["identity_dims"] = (args.dim,)
        if args.mu is not None:
            grid["mus"] = (args.mu,)
            grid["identity_mus"] = (args.mu,)
        if args.alpha is not None:
            grid["alphas"] = (args.alpha,)
        if args.lmax is not None:
            grid["lmax"] = args.lmax
            grid["lmax_identity"] = args.lmax
        # constructing params validates user-supplied values early
        for d in set(grid["dims"]) | set(grid["identity_dims"]):
            for mu in set(grid["mus"]) | set(grid["identity_mus"]):
                for alpha in grid["alphas"]:
                    PotentialParams(d=d, mu=mu, alpha=alpha)
    else:
        cfg.params = PotentialParams(d=args.dim, mu=args.mu, alpha=args.alpha)
        cfg.l_max = args.lmax if args.lmax is not None else 10
        if cfg.l_max < 0:
            raise ParameterError(f"lmax must be >= 0, got {cfg.l_max}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _resolve(args)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"zescat: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.command == "phase-table":
            return cmd_phase_table(cfg)
        if args.command == "eigenvalues":
            return cmd_eigenvalues(cfg)
        return cmd_verify(cfg)
    except NumericRouteError as exc:
        print(f"zescat: numeric route failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParameterError, ValueError) as exc:
        print(f"zescat: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
