"""Command-line front end.

Subcommands:
  budget    write the displacement-noise budget as CSV, JSON, or SVG
  check     evaluate the Qf-product and measurement-rate requirements
  ringdown  synthesize ring-down traces and fit Q from trace CSVs
  sweep     sweep one numeric config field and tabulate a metric

Exit codes: 0 success, 1 requirement check failed, 2 configuration
error, 3 I/O error, 4 any other failure (an analysis error).
"""

from __future__ import annotations

import argparse
import functools
import gc
import inspect
import json
import math
import sys
import warnings

import numpy as np

from . import budget as budget_mod
from . import ringdown as ringdown_mod
from .cavity import effective_oscillator, effective_requirements
from .config import (
    PAPER_PRESET,
    ExperimentConfig,
    build_config,
    load_config,
    load_raw,
    set_numeric,
)
from .core import ConfigError, DomainError, FitError, ShapeError, _csv_text
from .suspension import (
    ideal_pendulum_q,
    measurement_band_edge,
    pendulum_mode,
    violin_modes,
)
from .svgplot import Curve, Point, render_loglog

EXIT_OK = 0
EXIT_REQUIREMENT_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

# characters per write of an output, to a file or to stdout: each
# piece's encoded copy stays below glibc's default 128 KB mmap
# threshold, so the heap reuses one piece's memory for the next, where a
# whole day-long record's 132 MB copy (or 1 MB pieces) is mapped and
# faulted in afresh
_WRITE_CHARS = 1 << 16


def _write_pieces(fh, text: str) -> None:
    for lo in range(0, len(text), _WRITE_CHARS):
        fh.write(text[lo : lo + _WRITE_CHARS])


def _write_text(path: str, text: str) -> None:
    if path == "-":
        _write_pieces(sys.stdout, text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _write_pieces(fh, text)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def cmd_budget(args) -> int:
    if args.overlay is not None:
        # the survey figure draws no spectrum, so it computes none
        if args.format != "svg":
            raise ConfigError("--overlay requires --format svg")
        if args.components is not None:
            raise ConfigError("--overlay draws no budget, so it takes no --components")
        _write_text(args.out, _survey_svg(load_config(args.config, args.set), args.overlay))
        return EXIT_OK
    cfg = load_config(args.config, args.set)
    grid = cfg.grid()
    if args.components is None:
        names = ["suspension", "mirror"]
        if cfg.cavity.probe_power > 0.0:
            names.append("quantum")
    else:
        names = [n.strip() for n in args.components.split(",") if n.strip()]
    components = budget_mod.model_components(cfg.model, names, grid, cavity=cfg.cavity)
    if components:
        bud = budget_mod.total_budget(components, cfg.model.test_mass.mass, grid)
        spectra = [*bud.components, bud.total, bud.sql]
    else:
        spectra = [budget_mod.sql_asd(cfg.model.test_mass.mass, grid)]
    if args.format == "csv":
        text = budget_mod.spectra_to_csv(spectra)
    elif args.format == "json":
        text = budget_mod.spectra_to_json(spectra)
    else:
        text = render_loglog(
            [Curve(s.label, s.frequencies, s.asd) for s in spectra],
            title="Displacement noise budget",
            xlabel="frequency [Hz]",
            ylabel="displacement ASD [m/Hz^1/2]",
        )
    _write_text(args.out, text)
    return EXIT_OK


def _survey_svg(cfg: ExperimentConfig, overlay_path: str) -> str:
    points = _read_overlay(overlay_path)
    mode = pendulum_mode(cfg.model)
    gamma = mode.frequency / mode.quality_factor
    star = Point("this configuration", cfg.model.test_mass.mass, gamma)
    return render_loglog(
        [],
        title="Dissipation rate vs suspended mass",
        xlabel="mass [kg]",
        ylabel="dissipation rate [1/s]",
        points=points,
        star=star,
    )


OVERLAY_HEADER = "mass_kg,dissipation_per_s"


def _read_overlay(path: str) -> list[Point]:
    # utf-8-sig drops the byte order mark spreadsheets put before the header
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = [ln.strip() for ln in fh if ln.strip()]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"overlay CSV {path}: not UTF-8 text ({exc})") from exc
    if not lines or not lines[0].startswith(OVERLAY_HEADER):
        raise ConfigError(f"overlay CSV must start with header {OVERLAY_HEADER!r}")
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) < 2:
            raise ConfigError(f"overlay row needs mass_kg,dissipation_per_s: {ln!r}")
        try:
            mass, gamma = float(cells[0]), float(cells[1])
        except ValueError as exc:
            raise ConfigError(f"malformed overlay row {ln!r}: {exc}") from exc
        if not (math.isfinite(mass) and math.isfinite(gamma)):
            raise ConfigError(f"malformed overlay row {ln!r}: cells must be finite")
        label = cells[2].strip() if len(cells) > 2 else ""
        points.append(Point(label, mass, gamma))
    return points


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config, args.set)
    band = budget_mod.thermal_sub_sql_band(cfg.model, cfg.grid())
    report = effective_requirements(cfg.model, cfg.cavity, band)
    print("\n".join(report.lines()))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_REQUIREMENT_FAILED


# ---------------------------------------------------------------------------
# ringdown
# ---------------------------------------------------------------------------

def cmd_ringdown_synth(args) -> int:
    # an option that is not given is absent from args (SUPPRESS), so the
    # function's own default applies
    synth = ringdown_mod.synthesize_ringdown
    trace = synth(**{k: getattr(args, k) for k in inspect.signature(synth).parameters if k in args})
    _write_text(args.out, ringdown_mod.trace_to_csv(trace))
    return EXIT_OK


def _read_trace(path: str) -> ringdown_mod.RingdownTrace:
    # the file's text is freed when this returns, before the next is read
    text = ringdown_mod._read_text(path)
    try:
        return ringdown_mod.trace_from_csv(text)
    except DomainError as exc:
        raise DomainError(f"{exc} (in {path})") from exc


def cmd_ringdown_fit(args) -> int:
    # the fit flags apply after every --set, so a flag wins in either argv order
    cfg = load_config(args.config, [*args.set, *args.ringdown_set])
    traces = [_read_trace(path) for path in args.traces]
    fit = ringdown_mod.measure_q(traces, **cfg.ringdown, refine=args.refine)
    _write_text(args.out, ringdown_mod.fit_to_json(fit))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# a metric takes the config and its frequency grid [Hz]

def _metric_q_ideal(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    return ideal_pendulum_q(cfg.model)


def _metric_eq2_edge(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    mode = pendulum_mode(cfg.model)
    return measurement_band_edge(
        mode.frequency, mode.quality_factor, cfg.model.env.temperature
    )


def _widest_sub_sql_band(cfg: ExperimentConfig, grid: np.ndarray) -> tuple[float, float]:
    bands = budget_mod.thermal_sub_sql_band(cfg.model, grid)
    if not bands:
        return (math.nan, math.nan)
    return max(bands, key=lambda b: b[1] / b[0])


def _metric_sub_sql_lo(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    return _widest_sub_sql_band(cfg, grid)[0]


def _metric_sub_sql_hi(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    return _widest_sub_sql_band(cfg, grid)[1]


def _metric_f_violin1(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    return violin_modes(cfg.model, 1)[0].frequency_hz


def _metric_omega_eff(cfg: ExperimentConfig, grid: np.ndarray) -> float:
    return effective_oscillator(cfg.model, cfg.cavity).omega_eff


METRICS = {
    "q_ideal": _metric_q_ideal,
    "eq2_edge_hz": _metric_eq2_edge,
    "sub_sql_lo": _metric_sub_sql_lo,
    "sub_sql_hi": _metric_sub_sql_hi,
    "f_violin1": _metric_f_violin1,
    "omega_eff": _metric_omega_eff,
}


# upper bound on --steps: each step builds a config and evaluates the
# metric, about 0.8 ms for a sub-SQL band on the preset grid and 0.15 s
# on a 10^6-point grid
MAX_SWEEP_STEPS = 10_000


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    if args.steps > MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must be <= {MAX_SWEEP_STEPS}, got {args.steps}")
    if args.metric not in METRICS:
        raise ConfigError(
            f"unknown metric {args.metric!r}; choose from {', '.join(sorted(METRICS))}"
        )
    raw = load_raw(args.config, args.set)
    if args.log and (args.start <= 0 or args.stop <= 0):
        raise ConfigError("--log sweeps need positive endpoints")
    # the first step checks the path, with --from as given where np.linspace made it nan
    with np.errstate(all="ignore"):
        values = (np.geomspace if args.log else np.linspace)(args.start, args.stop, args.steps)
    if not math.isfinite(values[0]):
        values[0] = args.start
    metric = METRICS[args.metric]
    # the grid depends on the grid section alone, so a sweep of any other
    # field builds it once
    moves_grid = args.param.startswith("grid.")
    grid = None
    results = []
    for v in values:
        set_numeric(raw, args.param, v)  # build_config keeps no reference to raw
        cfg = build_config(raw)
        if grid is None or moves_grid:
            grid = cfg.grid()
        results.append(metric(cfg, grid))
    rows = _csv_text([values, results], "\n")
    _write_text(args.out, f"{args.param},{args.metric}\n" + rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="YAML config; defaults to the built-in preset")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config value, e.g. --set environment.temperature=4.2",
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="pendq",
        description="Suspended-pendulum optomechanics: noise budgets, "
        "requirement checks, optical springs, ring-down Q fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="write the noise budget")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    p.add_argument(
        "--components",
        default=None,
        help="comma list from {suspension,mirror,quantum}; empty string for SQL only",
    )
    p.add_argument(
        "--overlay",
        default=None,
        metavar="CSV",
        help="mass_kg,dissipation_per_s points; switches the SVG to a survey "
        "scatter with this configuration starred",
    )
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("check", help="evaluate both oscillator requirements")
    _add_config_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ringdown", help="ring-down synthesis and Q fitting")
    rd = p.add_subparsers(dest="subcommand", required=True)

    ps = rd.add_parser("synth", help="write a synthetic ring-down trace CSV")
    ps.add_argument("--f0", type=float, default=PAPER_PRESET["ringdown"]["f0"],
                    help="tone frequency [Hz]")
    ps.add_argument("--q", type=float, default=2000.0, help="quality factor")
    ps.add_argument("--sample-rate", type=float, default=50.0, help="[Hz]")
    ps.add_argument("--duration", type=float, default=240.0, help="[s]")
    ps.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    ps.add_argument("--noise-rms", type=float, default=argparse.SUPPRESS)
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ps.add_argument("--drift-uhz", type=float, default=argparse.SUPPRESS,
                    help="slow frequency wander RMS")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_ringdown_synth)

    pf = rd.add_parser("fit", help="fit Q from one or more trace CSVs")
    _add_config_args(pf)
    pf.add_argument("traces", nargs="+", help="trace CSV files (aggregated)")
    for key in PAPER_PRESET["ringdown"]:
        pf.add_argument("--" + key.replace("_", "-"), dest="ringdown_set", action="append",
                        default=[], type=f"ringdown.{key}={{}}".format, metavar=key.upper(),
                        help=f"shorthand for --set ringdown.{key}={key.upper()}")
    pf.add_argument("--refine", action="store_true", help="nonlinear refinement pass")
    pf.add_argument("--out", default="-")
    pf.set_defaults(func=cmd_ringdown_fit)

    p = sub.add_parser("sweep", help="sweep a config field, tabulate a metric")
    _add_config_args(p)
    p.add_argument("--param", required=True, help="dotted config path, e.g. fiber.radius")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true", help="log-spaced sweep values")
    p.add_argument("--metric", required=True, help=", ".join(sorted(METRICS)))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def _inputs(args) -> str:
    """" (inputs: ...)" naming the --config path and every assignment the
    call was given, a shorthand flag as the --set it stands for; "" for
    a call given none."""
    given = [f"--config {args.config}"] if getattr(args, "config", None) is not None else []
    given += [f"--set {a}" for a in (*getattr(args, "set", ()), *getattr(args, "ringdown_set", ()))]
    return f" (inputs: {', '.join(given)})" if given else ""


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        # a warning shown is one stderr line, naming the inputs as an error does
        warnings.showwarning = lambda message, category, *_: print(
            f"warning: {category.__name__}: {message}{_inputs(args)}", file=sys.stderr
        )
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except Exception as exc:
            # a failure pendq did not raise is named by its type (an overflow, a warning)
            own = isinstance(exc, (DomainError, ShapeError, FitError))
            kind = "" if own else f"{type(exc).__name__}: "
            print(f"analysis error: {kind}{exc}{_inputs(args)}", file=sys.stderr)
            return EXIT_ANALYSIS


def run(argv=None) -> int:
    """`main` for a process that exits when it returns: the `pendq` script
    and `python -m pendq.cli`.  It freezes the collector on the way out,
    so the interpreter's last collections skip the ~72 k objects that
    importing numpy and scipy left behind, and the OS reclaims them.  An
    in-process caller uses `main`, which leaves the collector alone: a
    frozen object is never collected again."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
