"""Seeded workload inputs for the pendq benchmark, and the checks on their outputs.

A workload's plan is a list of iterations; an iteration is a list of
ops run in order (a ring-down fit reads the records the synth ops of
its iteration wrote).  An op is one pendq CLI argv.  In an argv, OUT
stands for the op's output file and IN:<name> for an input another op
wrote; both resolve inside the directory of one execution mode (cold,
warm, traced), so each mode reads its own outputs and the modes' bytes
can be compared.
"""

from __future__ import annotations

import ast
import filecmp
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

OUT = "OUT"
IN = "IN:"
GOLDEN_SOURCE = Path("tests") / "test_ringdown.py"
FIXTURE = Path("data") / "ringdown_example.csv"
# tolerances test_golden_example_fit applies to the golden values
GOLDEN_TOLERANCES = {
    "q": ("GOLDEN_Q", 1e-7),
    "tau_s": ("GOLDEN_TAU", 1e-7),
    "q_rel_error": ("GOLDEN_REL_ERR", 1e-6),
    "residual_norm": ("GOLDEN_RESIDUAL", 1e-6),
}
# a 9-significant-digit value is off by at most 5e-9 relative; the total
# and the components are each rounded once
CSV_QUADRATURE_TOL = 2e-8
FIT_SIGMAS = 5.0


@dataclass
class Op:
    kind: str
    argv: list[str]
    out_name: str | None = None
    expect: dict = field(default_factory=dict)

    def out_path(self, mode_dir: Path, tag: str = "") -> Path | None:
        return mode_dir / f"{tag}{self.out_name}" if self.out_name else None

    def resolve(self, mode_dir: Path, tag: str = "", in_tag: str = "") -> list[str]:
        argv = []
        for arg in self.argv:
            if arg == OUT:
                arg = str(self.out_path(mode_dir, tag))
            elif arg.startswith(IN):
                arg = str(mode_dir / f"{in_tag}{arg[len(IN):]}")
            argv.append(arg)
        return argv


# ---------------------------------------------------------------------------
# design: one question per check/budget/sweep call
# ---------------------------------------------------------------------------

DESIGN_KINDS = ("check", "budget-csv", "budget-json", "budget-svg", "sweep")
DESIGN_CYCLES = 8
GRID_POINTS = (500, 8000)
# log-uniform from 1 mW: about a third of the checks fail the requirement
# (exit 1), so the exit-code check sees both outcomes
TRAP_POWER_LOG10_W = (-3.0, math.log10(0.5))
SWEEP_PARAMS = (
    ("fiber.radius", 2.5e-7, 2.0e-6, True),
    ("fiber.length", 0.01, 0.2, False),
    ("environment.temperature", 4.0, 300.0, True),
)
SWEEP_METRICS = ("sub_sql_lo", "q_ideal")
SWEEP_STEPS = 30


def _strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """One seeded value from each of n equal strata of [lo, hi], in seeded order."""
    width = (hi - lo) / n
    values = [int(lo + (j + rng.random()) * width) for j in range(n)]
    rng.shuffle(values)
    return values


def design_plan(rng: random.Random) -> list[list[Op]]:
    """DESIGN_CYCLES cycles of the op kinds, one op per iteration.

    Every seed has the same mix of kinds, of sweep metrics and, per kind,
    of grid sizes (one grid.points value per stratum), so the seed moves
    the inputs but not the amount of work.
    """
    grids = {kind: _strata(rng, *GRID_POINTS, DESIGN_CYCLES) for kind in DESIGN_KINDS}
    params = rng.sample(SWEEP_PARAMS, len(SWEEP_PARAMS))
    first_metric = rng.randrange(len(SWEEP_METRICS))
    plan = []
    for cycle in range(DESIGN_CYCLES):
        for kind in DESIGN_KINDS:
            name = f"c{cycle}-{kind}"
            overrides = []
            for value in (
                f"environment.temperature={rng.uniform(4.0, 300.0):.6g}",
                f"environment.pressure={10.0 ** rng.uniform(-7.0, -2.0):.6g}",
                f"cavity.trap_power={10.0 ** rng.uniform(*TRAP_POWER_LOG10_W):.6g}",
                f"grid.points={grids[kind][cycle]}",
            ):
                overrides += ["--set", value]
            if kind == "check":
                op = Op(kind, ["check", *overrides])
            elif kind.startswith("budget"):
                fmt = kind.split("-")[1]
                op = Op(kind, ["budget", "--format", fmt, "--out", OUT, *overrides], f"{name}.{fmt}")
            else:
                param, lo, hi, log = params[cycle % len(params)]
                metric = SWEEP_METRICS[(first_metric + cycle) % len(SWEEP_METRICS)]
                argv = ["sweep", "--param", param, "--from", repr(lo), "--to", repr(hi),
                        "--steps", str(SWEEP_STEPS), "--metric", metric, "--out", OUT]
                op = Op(kind, argv + (["--log"] if log else []) + overrides, f"{name}.csv",
                        {"header": f"{param},{metric}", "rows": SWEEP_STEPS})
            plan.append([op])
    return plan


# ---------------------------------------------------------------------------
# ring-down: synthesize records, then fit them
# ---------------------------------------------------------------------------

F0 = 2.2
SAMPLE_RATE = 50.0
NOISE_RMS = 0.4


def _synth_op(name: str, q: float, duration: float, seed: int, drift_uhz: float | None) -> Op:
    argv = ["ringdown", "synth", "--f0", repr(F0), "--q", repr(q),
            "--sample-rate", repr(SAMPLE_RATE), "--duration", repr(duration),
            "--noise-rms", repr(NOISE_RMS), "--seed", str(seed), "--out", OUT]
    if drift_uhz is not None:
        argv += ["--drift-uhz", repr(drift_uhz)]
    return Op("synth", argv, name, {"rows": int(round(duration * SAMPLE_RATE))})


def _fit_op(name: str, records: list[str], q_true: float) -> Op:
    argv = ["ringdown", "fit", *(IN + r for r in records), "--f0", repr(F0), "--out", OUT]
    return Op("fit", argv, name, {"q_true": q_true})


def _fixture_op(name: str) -> Op:
    return Op("fit-fixture", ["ringdown", "fit", str(FIXTURE), "--out", OUT], name)


SHORT_Q = 2000.0
SHORT_SECONDS = 240.0
SHORT_RECORDS = 4
SHORT_DRIFTING = 2
SHORT_DRIFT_UHZ = 50.0
SHORT_ITERATIONS = 4


def short_plan(rng: random.Random) -> list[list[Op]]:
    plan = []
    for it in range(SHORT_ITERATIONS):
        records = [f"it{it}-rec{k}.csv" for k in range(SHORT_RECORDS)]
        ops = [
            _synth_op(name, SHORT_Q, SHORT_SECONDS, rng.randrange(2**31),
                      SHORT_DRIFT_UHZ if k < SHORT_DRIFTING else None)
            for k, name in enumerate(records)
        ]
        ops.append(_fit_op(f"it{it}-pooled.json", records, SHORT_Q))
        ops.append(_fixture_op(f"it{it}-fixture.json"))
        plan.append(ops)
    return plan


DAY_Q = 2.0e6
DAY_SECONDS = 86400.0


def day_plan(rng: random.Random) -> list[list[Op]]:
    synth = _synth_op("day.csv", DAY_Q, DAY_SECONDS, rng.randrange(2**31), None)
    return [[synth, _fit_op("day-fit.json", ["day.csv"], DAY_Q)]]


def reference_design_ops() -> list[Op]:
    """Preset calls that exercise the design layers once."""
    ops = [Op("check", ["check"])]
    for fmt in ("csv", "json", "svg"):
        ops.append(Op(f"budget-{fmt}", ["budget", "--format", fmt, "--out", OUT], f"ref.{fmt}"))
    return ops


def reference_ringdown_ops() -> list[Op]:
    """A 240 s synth and the fixture fit, which exercise the ring-down layers once."""
    return [_synth_op("ref-rec.csv", SHORT_Q, SHORT_SECONDS, 1, None), _fixture_op("ref-fit.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[random.Random], list[list[Op]]]
    # traced runs take layers the plan never calls from these ops
    reference: Callable[[], list[Op]]


WORKLOADS = {
    "design": Workload("design", design_plan, reference_ringdown_ops),
    "ringdown-day": Workload("ringdown-day", day_plan, reference_design_ops),
    "ringdown-short": Workload("ringdown-short", short_plan, reference_design_ops),
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def golden_fit() -> dict:
    """GOLDEN_* constants of the ring-down test module, read without importing it."""
    tree = ast.parse(GOLDEN_SOURCE.read_text(encoding="utf-8"))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.startswith("GOLDEN_"):
                values[target.id] = ast.literal_eval(node.value)
    return values


def _check_quadrature(rows: dict[str, list[float]]) -> list[str]:
    components = [label for label in rows if label not in ("total", "SQL")]
    if "total" not in rows or not components:
        return [f"budget lacks total or components: {sorted(rows)}"]
    for i, total in enumerate(rows["total"]):
        rss = math.sqrt(sum(rows[c][i] ** 2 for c in components))
        if abs(total / rss - 1.0) > CSV_QUADRATURE_TOL:
            return [f"total {total!r} != quadrature sum {rss!r} at row {i}"]
    return []


def _budget_csv_rows(text: str) -> dict[str, list[float]]:
    rows: dict[str, list[float]] = {}
    for line in text.splitlines()[1:]:
        _freq, asd, label = line.split(",", 2)
        rows.setdefault(label, []).append(float(asd))
    return rows


def _check_fit(op: Op, text: str, golden: dict) -> list[str]:
    fit = json.loads(text)
    if op.kind == "fit-fixture":
        errors = []
        for key, (const, rel) in GOLDEN_TOLERANCES.items():
            if not math.isclose(fit[key], golden[const], rel_tol=rel):
                errors.append(f"fixture {key} {fit[key]!r} != golden {golden[const]!r}")
        if fit["n_bins"] != golden["GOLDEN_BINS"]:
            errors.append(f"fixture n_bins {fit['n_bins']} != {golden['GOLDEN_BINS']}")
        return errors
    q_true = op.expect["q_true"]
    sigma = fit["q"] * fit["q_rel_error"]
    if abs(fit["q"] - q_true) > FIT_SIGMAS * sigma:
        return [f"Q {fit['q']:.6g} is {abs(fit['q'] - q_true) / sigma:.1f} sigma from {q_true:g}"]
    return []


def check_output(op: Op, result: dict, out_path: Path | None, golden: dict) -> list[str]:
    """Failures of one execution: exit code, traceback, then the op's own output."""
    rc, stderr = result["rc"], result["stderr"]
    if "Traceback (most recent call last)" in stderr:
        return [f"{op.kind}: traceback: {stderr.strip().splitlines()[-1]}"]
    # 1 is check's "requirement failed"; 2, 3 and 4 (config, I/O, analysis) are failures
    if rc not in ((0, 1) if op.kind == "check" else (0,)):
        return [f"{op.kind}: exit code {rc}: {stderr.strip()[-300:]}"]
    try:
        if op.kind == "check":
            stdout = result["stdout"]
            report = json.loads(stdout[stdout.index("\n{") + 1:])
            if (rc == 0) != bool(report["passed"]):
                return [f"check: exit code {rc} but passed={report['passed']}"]
            return []
        if op.kind == "synth":
            with open(out_path, "rb") as fh:
                header = fh.readline()
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b""))
            if header != b"time_s,value\n" or rows != op.expect["rows"]:
                return [f"synth: header {header!r}, {rows} rows, expected {op.expect['rows']}"]
            return []
        text = out_path.read_text(encoding="utf-8")
        if op.kind.startswith("fit"):
            return _check_fit(op, text, golden)
        if op.kind == "budget-csv":
            return _check_quadrature(_budget_csv_rows(text))
        if op.kind == "budget-json":
            spectra = json.loads(text)["spectra"]
            return _check_quadrature({s["label"]: s["asd_m_per_sqrthz"] for s in spectra})
        if op.kind == "budget-svg":
            root = ET.fromstring(text)
            return [] if root.tag.endswith("svg") else [f"svg root is {root.tag}"]
        if op.kind == "sweep":
            lines = text.splitlines()
            widths = {len([float(v) for v in line.split(",")]) for line in lines[1:]}
            if lines[0] != op.expect["header"] or len(lines) - 1 != op.expect["rows"] or widths != {2}:
                return [f"sweep: header {lines[0]!r}, {len(lines) - 1} rows"]
            return []
    except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return [f"{op.kind}: unreadable output: {exc!r}"]
    return [f"unknown op kind {op.kind}"]


def same_output(op: Op, a: dict, b: dict, path_a: Path | None, path_b: Path | None) -> bool:
    """Byte equality of two executions' outputs (stdout for check, else the file)."""
    if op.out_name is None:
        return a["stdout"] == b["stdout"]
    return filecmp.cmp(path_a, path_b, shallow=False)
