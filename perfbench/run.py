#!/usr/bin/env python3
"""Benchmark for pendq, driven only through its public entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):
  design          seeded check / budget (csv, json, svg) / 30-step sweep calls
  ringdown-day    synth then fit of one 24 h, 50 Hz record (Q = 2e6)
  ringdown-short  synth of four 240 s records, a pooled fit, the fixture fit

--trace 0 reports the end-to-end metrics.  Set-up builds the seeded
inputs and starts the warm worker (perfbench/tracer.py serve), which
imports pendq and makes one warm-up call; it runs SETUP_REPEATS times.
Then, closed loop with one client, every op runs cold (`python -m
pendq.cli` in a fresh child, PYTHONPATH=src) for about --seconds
seconds, and the plan's ops run warm (`pendq.cli.main` in the worker)
spread through that time.  Times are corrected for the machine's
drifting speed (see at_reference_speed).  The benchmark itself never imports pendq or
numpy, so the peak RSS wait4 reports for a child is the child's own.

--trace 1 reports the per-layer metrics: every op runs in a child that
wraps pendq's public functions with spans (perfbench/tracer.py trace).

Both check every output.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; all samples, and
the spans of a traced run, are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = "src"
OUT_DIR = Path(".bench_out")
# every child uses one BLAS/OpenMP thread
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")
CLI = [sys.executable, "-m", "pendq.cli"]

MODES = ("cold", "warm", "traced")
SETUP_REPEATS = 3
PROBE_LOOPS = 600_000
PROBE_REF_S = 0.06  # the probe's median time on this machine
SCALE_HORIZON_S = 8.0
INTERPRETER_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
# scipy's lazy submodule access (`from scipy import signal`) bypasses
# -X importtime, so scipy is timed in a child of its own, after numpy
IMPORT_SCRIPTS = (
    "import sys; n = len(sys.modules); import pendq.cli; print(len(sys.modules) - n)",
    "import numpy; import scipy.signal; import scipy.optimize",
)
IMPORT_METRICS = {
    "pendq.cli": "import.pendq_cli_s",
    "pendq.ringdown": "import.pendq_ringdown_s",
    "scipy.signal": "import.scipy_signal_s",
    "scipy.optimize": "import.scipy_optimize_s",
}
RINGDOWN_STAGES = (
    "synthesize_ringdown", "trace_to_csv", "trace_from_csv",
    "bandpass", "envelope", "bin_average", "fit_exponential",
)
STAGE_LABEL = {"synthesize_ringdown": "synthesize"}


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def bracketed(work, probes: list[float]):
    """(work(), the mean of the probes taken just before and just after it)."""
    before = probe()
    result = work()
    after = probe()
    probes += (before, after)
    return result, statistics.fmean((before, after))


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A call's time as if the machine had run at the probe's reference speed.

    The machine is shared: its speed drifts by +-20 % from second to
    second and over tens of seconds, about as long as a run.  The probes
    around a call (never during one: the two CPUs contend) tell its speed
    well when the call is short and poorly when it is long, so the
    correction PROBE_REF_S / probe_s is applied with the weight
    1 / (1 + seconds / SCALE_HORIZON_S), which falls smoothly with the
    call's length.  PROBE_REF_S is the probe's typical time here, so the
    correction is 1 on average.  The detail report keeps the unscaled
    times and every probe.
    """
    return seconds * (PROBE_REF_S / probe_s) ** (1.0 / (1.0 + seconds / SCALE_HORIZON_S))


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path) -> dict:
    """Run one child to completion; peak RSS is this child's own, from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "seconds": seconds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace"),
    }


class WarmWorker:
    """The `tracer.py serve` child: pendq imported and warmed up, one cli.main call per request."""

    def __init__(self, workdir: Path):
        self._stderr = open(workdir / "worker.stderr", "wb")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "tracer.py"), "serve"], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError(f"warm worker did not start; see {workdir / 'worker.stderr'}")

    def call(self, argv: list[str]) -> dict:
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("warm worker exited")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()
            self._stderr.close()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would fall under the
    median, so the median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def describe(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)} value={samples[0]:.6g}" if samples else "n=0"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"n={len(samples)} median={statistics.median(samples):.6g} q1={q1:.6g} q3={q3:.6g}"


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def build_inputs(workload: wl.Workload, seed: int, workdir: Path) -> list:
    """A fresh work directory and the workload's plan, also written to inputs.json."""
    shutil.rmtree(workdir, ignore_errors=True)
    for mode in MODES:
        (workdir / mode).mkdir(parents=True)
    plan = workload.plan(random.Random(f"{workload.name}:{seed}"))
    inputs = [[{"kind": op.kind, "argv": op.argv, "out": op.out_name} for op in it] for it in plan]
    (workdir / "inputs.json").write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    return plan


def setup(workload: wl.Workload, seed: int, workdir: Path,
          probes: list[float]) -> tuple[list, WarmWorker, list[tuple[float, float]]]:
    """Build the inputs and start the warm worker SETUP_REPEATS times; keeps the last worker.

    Returns the plan, the worker and each repeat's (seconds, probe_s).
    Starting the worker imports pendq and makes its warm-up call, so work
    moved from calls into import shows in setup_s.
    """
    times, worker = [], None
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()

        def build():
            start = time.perf_counter()
            plan = build_inputs(workload, seed, workdir)
            return plan, WarmWorker(workdir), time.perf_counter() - start

        (plan, worker, seconds), probe_s = bracketed(build, probes)
        times.append((seconds, probe_s))
    return plan, worker, times


def run_for(plan: list, seconds: float, body) -> int:
    """Run iterations in plan order, cycling, until `seconds` have passed; at least one."""
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        body(plan[done % len(plan)])
        done += 1
    return done


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(plan: list, worker: WarmWorker, seconds: float, workdir: Path, golden: dict,
            tally: Tally, probes: list[float]) -> tuple[dict, dict]:
    """Cold calls in a closed loop for `seconds`, with one warm pass over the plan spread through it.

    After each cold call the warm pass (every op of the plan, in order,
    through cli.main in the warm worker) catches up with the share of
    `seconds` gone, so cold and warm calls sample the same stretch of
    machine time.  The warm pass has the same mix of work for every seed.
    Each cold output is then compared with its warm twin.  Each cold
    call and each warm batch is bracketed by probes.
    """
    cold_dir, warm_dir = workdir / "cold", workdir / "warm"
    warm_ops = [op for iteration in plan for op in iteration]
    cold_runs: dict[int, dict] = {}
    warm_runs: dict[int, dict] = {}
    timed: list[tuple[str, str, float, float]] = []  # (kind, metric, seconds, probe_s)
    peak_rss: dict[str, list[float]] = defaultdict(list)

    def warm_batch(share: float) -> list[wl.Op]:
        batch = []
        while len(warm_runs) < min(share, 1.0) * len(warm_ops):
            op = warm_ops[len(warm_runs)]
            warm_runs[id(op)] = worker.call(op.resolve(warm_dir))
            batch.append(op)
        return batch

    def warm_until(share: float) -> None:
        if len(warm_runs) < min(share, 1.0) * len(warm_ops):
            batch, probe_s = bracketed(lambda: warm_batch(share), probes)
            timed.extend((op.kind, "api_s", warm_runs[id(op)]["seconds"], probe_s) for op in batch)

    def cold_iteration(iteration):
        for op in iteration:
            result, probe_s = bracketed(lambda: spawn(
                CLI + op.resolve(cold_dir), workdir / "stdout", workdir / "stderr"), probes)
            tally.record(wl.check_output(op, result, op.out_path(cold_dir), golden))
            cold_runs.setdefault(id(op), result)
            timed.append((op.kind, "cli_s", result["seconds"], probe_s))
            peak_rss[op.kind].append(result["peak_rss_mb"])
            warm_until((time.perf_counter() - start) / seconds)

    start = time.perf_counter()
    iterations = run_for(plan, seconds, cold_iteration)
    warm_until(1.0)
    for op in warm_ops:
        warm, cold = warm_runs[id(op)], cold_runs.get(id(op))
        failures = wl.check_output(op, warm, op.out_path(warm_dir), golden)
        if cold and not failures and not wl.same_output(
            op, cold, warm, op.out_path(cold_dir), op.out_path(warm_dir)
        ):
            failures = [f"{op.kind}: warm output differs from cold output"]
        tally.record(failures)

    samples: dict[str, list[float]] = defaultdict(list)
    by_kind: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for kind, metric, took, probe_s in timed:
        for key, value in ((metric, at_reference_speed(took, probe_s)), (f"{metric}_unscaled", took)):
            samples[key].append(value)
            by_kind[kind][key].append(value)
    for kind, values in peak_rss.items():
        by_kind[kind]["peak_rss_mb"] = values
    tail_pct, tail_s = tail(samples["cli_s"])
    metrics = {
        "cli_s.p50": statistics.median(samples["cli_s"]),
        "cli_s.tail": tail_s,
        "api_ops_per_s": len(samples["api_s"]) / sum(samples["api_s"]),
        "peak_rss_mb": max(max(values) for values in peak_rss.values()),
    }
    detail = {"iterations": iterations, "cli_s.tail_percentile": tail_pct, **samples,
              "by_kind": by_kind}
    return metrics, detail


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def run_traced_op(op: wl.Op, workdir: Path, golden: dict, tally: Tally) -> dict:
    """One op in a traced child: call i writes files tagged "i-" and reads those of call 0."""
    traced_dir = workdir / "traced"
    tags = [f"{i}-" for i in range(3)]
    paths = [op.out_path(traced_dir, tag) for tag in tags]
    request, result = workdir / "request.json", workdir / "result.json"
    calls = [op.resolve(traced_dir, tag, tags[0]) for tag in tags]
    request.write_text(json.dumps({"calls": calls}), encoding="utf-8")
    child = spawn([sys.executable, str(HERE / "tracer.py"), "trace", str(request), str(result)],
                  workdir / "stdout", workdir / "stderr")
    if child["rc"] != 0:
        raise RuntimeError(f"traced child failed ({child['rc']}): {child['stderr'][-500:]}")
    traced = json.loads(result.read_text(encoding="utf-8"))
    calls = traced["calls"]
    for i, call in enumerate(calls):
        failures = wl.check_output(op, call, paths[i], golden)
        if i and not failures and not wl.same_output(op, calls[0], call, paths[0], paths[i]):
            failures = [f"{op.kind}: output of call {i} differs from call 0"]
        tally.record(failures)
    return {
        "kind": op.kind,
        "import_s": traced["import_s"],
        "untraced_s": calls[1]["seconds"],
        # call 0 pays first-call costs, so it stands in only when call 2 was skipped
        "traced_s": calls[-1]["seconds"] if len(calls) == 3 else calls[0]["seconds"],
        "spans": [s for s in traced["spans"] if s["op"] == 0],
    }


def _with_self_time(spans: list[dict]) -> list[dict]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        s["self_s"] = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
    return spans


def _per_op(ops: list[list[dict]], names: tuple, value) -> float | None:
    """Mean over the ops that call `names` of the op's summed value."""
    totals = [sum(value(s) for s in spans if s["name"] in names)
              for spans in ops if any(s["name"] in names for s in spans)]
    return statistics.fmean(totals) if totals else None


def _per_call(ops: list[list[dict]], names: tuple, key: str) -> float | None:
    values = [s[key] for spans in ops for s in spans if s["name"] in names]
    return statistics.fmean(values) if values else None


def _ratio(ops: list[list[dict]], num: tuple, num_value, den: tuple, den_value) -> float | None:
    n = sum(num_value(s) for spans in ops for s in spans if s["name"] in num)
    d = sum(den_value(s) for spans in ops for s in spans if s["name"] in den)
    return n / d if d else None


def layer_metrics(ops: list[list[dict]]) -> dict[str, float | None]:
    self_s = lambda s: s["self_s"]  # noqa: E731
    calls = lambda s: 1  # noqa: E731
    spectra = tuple(f"budget.{n}" for n in tracer.TRACED["budget"] if n.endswith("_asd"))
    m = {
        "cli.main_self_s": _per_op(ops, (tracer.ROOT_SPAN,), self_s),
        "config.load_config_s": _per_op(ops, ("config.load_config",), self_s),
        "config.build_config_s": _per_op(ops, ("config.build_config",), self_s),
        "config.build_config_calls": _per_op(ops, ("config.build_config",), calls),
        "suspension.suspension_modes_s": _per_op(ops, ("suspension.suspension_modes",), self_s),
        "cavity.effective_requirements_s": _per_op(ops, ("cavity.effective_requirements",), self_s),
        "budget.spectra_s": _per_op(ops, spectra, self_s),
        "budget.grid_points": _per_call(ops, spectra, "grid_points"),
    }
    for name in ("total_budget", "sub_sql_band"):
        m[f"budget.{name}_s"] = _per_op(ops, (f"budget.{name}",), self_s)
    for qual in ("budget.spectra_to_csv", "budget.spectra_to_json", "svgplot.render_loglog"):
        m[f"{qual}_s"] = _per_op(ops, (qual,), self_s)
        m[f"{qual}_bytes"] = _per_call(ops, (qual,), "text_bytes")
    for stage in RINGDOWN_STAGES:
        label = STAGE_LABEL.get(stage, stage)
        names = (f"ringdown.{stage}",)
        m[f"ringdown.{label}_s"] = _per_op(ops, names, self_s)
        m[f"ringdown.rss_hwm_mb.{label}"] = _per_call(ops, names, "rss_hwm_mb")
        m[f"ringdown.bytes_moved.{label}"] = _per_op(ops, names, lambda s: s["bytes_moved"])
    csv_io = ("ringdown.trace_from_csv", "ringdown.trace_to_csv")
    text_mb = lambda s: s["text_bytes"] / 1e6  # noqa: E731
    wall = lambda s: s["end"] - s["start"]  # noqa: E731
    m.update({
        "ringdown.measure_q_self_s": _per_op(ops, ("ringdown.measure_q",), self_s),
        "ringdown.csv_rows": _per_call(ops, csv_io, "rows"),
        "ringdown.csv_read_mb_per_s": _ratio(ops, csv_io[:1], text_mb, csv_io[:1], wall),
        "ringdown.csv_write_mb_per_s": _ratio(ops, csv_io[1:], text_mb, csv_io[1:], wall),
        "ringdown.samples_in": _per_call(ops, ("ringdown.measure_q",), "samples_in"),
        "ringdown.envelope_samples": _per_op(ops, ("ringdown.envelope",), lambda s: s["samples_out"]),
        "ringdown.kept_ratio": _ratio(ops, ("ringdown.bin_average",), lambda s: s["samples_in"],
                                      ("ringdown.envelope",), lambda s: s["samples_out"]),
        "ringdown.n_bins": _per_call(ops, ("ringdown.fit_exponential",), "n_bins"),
    })
    return m


def interpreter_probe(workdir: Path) -> float:
    runs = [spawn([sys.executable, "-c", "pass"], workdir / "stdout", workdir / "stderr")
            for _ in range(INTERPRETER_REPEATS)]
    return statistics.median(r["seconds"] for r in runs)


def import_probe(workdir: Path) -> dict[str, float]:
    """Cumulative import times from `-X importtime`, median of IMPORT_REPEATS children."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        for script in IMPORT_SCRIPTS:
            child = spawn([sys.executable, "-X", "importtime", "-c", script],
                          workdir / "stdout", workdir / "stderr")
            if child["rc"] != 0:
                raise RuntimeError(f"import probe failed: {child['stderr'][-500:]}")
            if child["stdout"].strip():
                samples["import.modules_loaded"].append(float(child["stdout"]))
            found = set()
            for line in child["stderr"].splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    metric = IMPORT_METRICS.get(fields[2].strip())
                    if metric and metric not in found:  # the first line is where it loaded
                        found.add(metric)
                        samples[metric].append(int(fields[1]) / 1e6)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def measure_traced(workload: wl.Workload, plan: list, seconds: float, workdir: Path,
                   golden: dict, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics from traced children over the plan, for about `seconds`.

    Every traced run reports every layer: a layer the workload never
    calls (ring-down on design, budget and svgplot on the ring-down
    workloads) takes its values from the workload's reference ops.
    """
    ops: list[dict] = []
    iterations = run_for(plan, seconds, lambda it: ops.extend(
        run_traced_op(op, workdir, golden, tally) for op in it))
    reference = [run_traced_op(op, workdir, golden, tally) for op in workload.reference()]
    metrics = layer_metrics([_with_self_time(o["spans"]) for o in ops])
    fill = layer_metrics([_with_self_time(o["spans"]) for o in reference])
    from_reference = sorted(k for k, v in metrics.items() if v is None)
    for key in from_reference:
        metrics[key] = fill[key]
    metrics["cli.interpreter_s"] = interpreter_probe(workdir)
    metrics.update(import_probe(workdir))
    metrics["trace.overhead_frac"] = (
        sum(o["traced_s"] for o in ops) / sum(o["untraced_s"] for o in ops) - 1.0
    )
    detail = {"iterations": iterations, "from_reference_ops": from_reference,
              "ops": ops, "reference_ops": reference}
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in (Path(SRC, "pendq", "cli.py"), wl.GOLDEN_SOURCE, wl.FIXTURE)
               if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from a pendq checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    workload = wl.WORKLOADS[args.workload]

    build = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], env=CHILD_ENV)
    if build.returncode != 0:
        print("perfbench: byte-compiling src failed", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    golden = wl.golden_fit()
    tally = Tally()
    try:
        if args.trace:
            plan = build_inputs(workload, args.seed, workdir)
            # fill the page cache for the interpreter and pendq's imports before timing
            spawn(CLI + ["check"], workdir / "stdout", workdir / "stderr")
            metrics, detail = measure_traced(workload, plan, args.seconds, workdir, golden, tally)
        else:
            probes: list[float] = []
            plan, worker, setup_times = setup(workload, args.seed, workdir, probes)
            try:
                metrics, detail = measure(plan, worker, args.seconds, workdir, golden, tally, probes)
            finally:
                worker.close()
            metrics["setup_s"] = statistics.median(at_reference_speed(*t) for t in setup_times)
            detail.update(setup_s_unscaled=[took for took, _ in setup_times], probe_s=probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    failed = len(tally.failures)
    detail.update(attempted=tally.attempted, failures=tally.failures)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metrics": metrics, "detail": detail}, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {detail['iterations']} iterations, "
          f"detail in {report}")
    if not args.trace:
        print(f"  probe_s {describe(detail['probe_s'])}; times below are at a {PROBE_REF_S} s probe")
        print(f"  cli_s {describe(detail['cli_s'])}; tail is p{detail['cli_s.tail_percentile']:.1f}")
        print(f"  api_s {describe(detail['api_s'])}")
        for kind, samples in sorted(detail["by_kind"].items()):
            rss = max(samples["peak_rss_mb"], default=float("nan"))
            print(f"  {kind:12s} cli_s {describe(samples['cli_s'])}; peak_rss_mb max {rss:.1f}; "
                  f"api_s {describe(samples['api_s'])}")
    for failure in tally.failures[:10]:
        print(f"  FAILED: {failure}")
    print(f"  failed_frac {failed / tally.attempted:.4g} ({failed} of {tally.attempted})")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
