"""Command-line front end.

Subcommands:
  budget    write the displacement-noise budget as CSV, JSON, or SVG
  check     evaluate the Qf-product and measurement-rate requirements
  ringdown  synthesize ring-down traces and fit Q from trace CSVs
  sweep     sweep one numeric config field and tabulate a metric

Exit codes: 0 success, 1 requirement check failed, 2 configuration
error, 3 I/O error, 4 analysis-domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import budget as budget_mod
from . import ringdown as ringdown_mod
from .cavity import effective_oscillator, effective_requirements
from .config import (
    ExperimentConfig,
    build_config,
    get_numeric,
    load_config,
    load_raw,
    set_numeric,
)
from .core import ConfigError, DomainError, FitError, ShapeError, _CSV_FLOAT
from .suspension import (
    diluted_pendulum_q,
    material_q,
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

def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def cmd_budget(args) -> int:
    cfg = load_config(args.config, args.set)
    grid = cfg.grid()
    if args.components is None:
        names = ["suspension", "mirror"]
        if cfg.cavity.probe_power > 0.0:
            names.append("quantum")
    else:
        names = [n.strip() for n in args.components.split(",") if n.strip()]
    components = budget_mod.model_components(
        cfg.model, names, grid, cfg.violin_mode_count, cavity=cfg.cavity
    )
    if components:
        bud = budget_mod.total_budget(components, cfg.test_mass.mass, grid)
        spectra = [*bud.components, bud.total, bud.sql]
    else:
        spectra = [budget_mod.sql_asd(cfg.test_mass.mass, grid)]
    if args.overlay is not None and args.format != "svg":
        raise ConfigError("--overlay requires --format svg")
    if args.format == "csv":
        text = budget_mod.spectra_to_csv(spectra)
    elif args.format == "json":
        text = budget_mod.spectra_to_json(spectra)
    else:
        text = _budget_svg(cfg, spectra, args.overlay)
    _write_text(args.out, text)
    return EXIT_OK


def _budget_svg(cfg: ExperimentConfig, spectra, overlay_path: str | None) -> str:
    if overlay_path is None:
        curves = [Curve(s.label, s.frequencies, s.asd) for s in spectra]
        return render_loglog(
            curves,
            title="Displacement noise budget",
            xlabel="frequency [Hz]",
            ylabel="displacement ASD [m/Hz^1/2]",
        )
    points = _read_overlay(overlay_path)
    mode = pendulum_mode(cfg.model)
    gamma = mode.frequency / mode.quality_factor
    star = Point("this configuration", cfg.test_mass.mass, gamma)
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
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
        label = cells[2].strip() if len(cells) > 2 else ""
        points.append(Point(label, mass, gamma))
    return points


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config, args.set)
    band = budget_mod.thermal_sub_sql_band(cfg.model, cfg.grid(), cfg.violin_mode_count)
    report = effective_requirements(
        cfg.model, cfg.cavity, cfg.env.temperature, sub_sql=band
    )
    eff = report.effective
    print(f"pendulum:    f_m = {eff.omega_m / (2 * math.pi):.4g} Hz, Q_m = {eff.q_m:.3g}")
    print(
        f"effective:   f_eff = {eff.omega_eff_hz:.4g} Hz, Q_eff = {eff.q_eff:.3g}, "
        f"k_opt/k_g = {eff.spring_ratio:.3g}"
        + (", anti-damped spring" if eff.anti_damped else "")
    )
    verdict1 = "pass" if report.eq1.passed else "FAIL"
    print(
        f"Qf product:  Q_eff*w_eff = {report.eq1.lhs:.4g} rad/s vs k_B*T/hbar = "
        f"{report.eq1.rhs:.4g} rad/s -> {verdict1}, margin {report.eq1.margin:.4g}"
    )
    in_band = eff.omega_eff_hz >= report.eq2_edge_hz
    verdict2 = "pass" if in_band else "FAIL"
    print(
        f"rate band:   requirement met above {report.eq2_edge_hz:.4g} Hz; "
        f"f_eff {'inside' if in_band else 'below'} -> {verdict2}"
    )
    print("sub-SQL:     " + _format_bands(report.sub_sql_band_hz))
    print("overlap:     " + _format_bands(report.band_overlap_hz))
    print(f"overall:     {'pass' if report.passed else 'FAIL'}")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_REQUIREMENT_FAILED


def _format_bands(bands) -> str:
    if not bands:
        return "none"
    return "; ".join(f"{lo:.4g} - {hi:.4g} Hz" for lo, hi in bands)


# ---------------------------------------------------------------------------
# ringdown
# ---------------------------------------------------------------------------

def cmd_ringdown_synth(args) -> int:
    trace = ringdown_mod.synthesize_ringdown(
        f0=args.f0,
        q=args.q,
        sample_rate=args.sample_rate,
        duration=args.duration,
        amplitude=args.amplitude,
        noise_rms=args.noise_rms,
        seed=args.seed,
        drift_uhz=args.drift_uhz,
    )
    _write_text(args.out, ringdown_mod.trace_to_csv(trace))
    return EXIT_OK


def _read_trace(path: str) -> ringdown_mod.RingdownTrace:
    # the text goes out of scope here, so it is freed before the fit runs
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"malformed trace CSV {path}: not UTF-8 text ({exc})") from exc
    return ringdown_mod.trace_from_csv(text)


def cmd_ringdown_fit(args) -> int:
    cfg = load_config(args.config, args.set)
    f0 = args.f0 if args.f0 is not None else cfg.ringdown_f0
    bandwidth = args.bandwidth if args.bandwidth is not None else cfg.ringdown_bandwidth
    bin_seconds = (
        args.bin_seconds if args.bin_seconds is not None else cfg.ringdown_bin_seconds
    )
    traces = [_read_trace(path) for path in args.traces]
    fit = ringdown_mod.measure_q(
        traces,
        f0=f0,
        bandwidth=bandwidth,
        bin_seconds=bin_seconds,
        settle_seconds=args.settle_seconds,
        refine=args.refine,
    )
    _write_text(args.out, ringdown_mod.fit_to_json(fit))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _metric_q_ideal(cfg: ExperimentConfig) -> float:
    return diluted_pendulum_q(
        cfg.fiber, cfg.test_mass.mass, material_q(cfg.fiber, cfg.env)
    )


def _metric_eq2_edge(cfg: ExperimentConfig) -> float:
    mode = pendulum_mode(cfg.model)
    return measurement_band_edge(
        mode.frequency, mode.quality_factor, cfg.env.temperature
    )


def _widest_sub_sql_band(cfg: ExperimentConfig) -> tuple[float, float]:
    bands = budget_mod.thermal_sub_sql_band(cfg.model, cfg.grid(), cfg.violin_mode_count)
    if not bands:
        return (math.nan, math.nan)
    return max(bands, key=lambda b: b[1] / b[0])


def _metric_sub_sql_lo(cfg: ExperimentConfig) -> float:
    return _widest_sub_sql_band(cfg)[0]


def _metric_sub_sql_hi(cfg: ExperimentConfig) -> float:
    return _widest_sub_sql_band(cfg)[1]


def _metric_f_violin1(cfg: ExperimentConfig) -> float:
    return violin_modes(cfg.fiber, cfg.test_mass.mass, 1)[0].frequency_hz


def _metric_omega_eff(cfg: ExperimentConfig) -> float:
    return effective_oscillator(cfg.model, cfg.cavity).omega_eff


METRICS = {
    "q_ideal": _metric_q_ideal,
    "eq2_edge_hz": _metric_eq2_edge,
    "sub_sql_lo": _metric_sub_sql_lo,
    "sub_sql_hi": _metric_sub_sql_hi,
    "f_violin1": _metric_f_violin1,
    "omega_eff": _metric_omega_eff,
}


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    if args.metric not in METRICS:
        raise ConfigError(
            f"unknown metric {args.metric!r}; choose from {', '.join(sorted(METRICS))}"
        )
    base = load_raw(args.config, args.set)
    get_numeric(base, args.param)  # fail fast on unknown/non-numeric params
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("--log sweeps need positive endpoints")
        values = np.geomspace(args.start, args.stop, args.steps)
    else:
        values = np.linspace(args.start, args.stop, args.steps)
    metric = METRICS[args.metric]
    lines = [f"{args.param},{args.metric}"]
    for v in values:
        raw = json.loads(json.dumps(base))  # deep copy without sharing
        set_numeric(raw, args.param, float(v))
        result = metric(build_config(raw))
        lines.append(f"{_CSV_FLOAT % v},{_CSV_FLOAT % result}")
    _write_text(args.out, "\n".join(lines) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
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
    ps.add_argument("--f0", type=float, default=2.2, help="tone frequency [Hz]")
    ps.add_argument("--q", type=float, default=2000.0, help="quality factor")
    ps.add_argument("--sample-rate", type=float, default=50.0, help="[Hz]")
    ps.add_argument("--duration", type=float, default=240.0, help="[s]")
    ps.add_argument("--amplitude", type=float, default=1.0)
    ps.add_argument("--noise-rms", type=float, default=0.0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--drift-uhz", type=float, default=None, help="slow frequency wander RMS")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_ringdown_synth)

    pf = rd.add_parser("fit", help="fit Q from one or more trace CSVs")
    _add_config_args(pf)
    pf.add_argument("traces", nargs="+", help="trace CSV files (aggregated)")
    pf.add_argument("--f0", type=float, default=None, help="default: config ringdown.f0")
    pf.add_argument("--bandwidth", type=float, default=None)
    pf.add_argument("--bin-seconds", type=float, default=None)
    pf.add_argument("--settle-seconds", type=float, default=None)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, ShapeError, FitError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
