#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric across the runs.

Usage, from the repository root:

    python3 perfbench/spread.py --workload design --seeds 1-10 --seconds 20 --out runs.json

For every metric it prints the median and quartiles of the per-run
values and their spread, (q3 - q1) / median, next to the bound
BENCHMARK.json fixes.  For --trace 0 it also summarizes each op kind's
median cold-call time and peak RSS from the runs'
detail files; on the ring-down workloads these are synth_s, fit_s,
synth_peak_rss_mb and fit_peak_rss_mb.
Runs are sequential, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's result and the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = defaultdict(list)
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        if not args.trace:
            report = ROOT / ".bench_out" / f"{args.workload}-seed{seed}-trace0.json"
            detail = json.loads(report.read_text(encoding="utf-8"))["detail"]
            for kind, samples in detail["by_kind"].items():
                if samples.get("cli_s"):
                    values[f"kind.{kind}.cli_s"].append(statistics.median(samples["cli_s"]))
                    values[f"kind.{kind}.peak_rss_mb"].append(max(samples["peak_rss_mb"]))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", file=sys.stderr)

    summary = {}
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(values):
        q1, median, q3 = quartiles(values[name])
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values[name])}
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:42s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                              "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
