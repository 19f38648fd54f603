"""Span tracing for the pendq benchmark, applied from outside the package.

The tracer wraps pendq's public functions at their module attributes
(and wherever another pendq module holds the same function under that
name, as `pendq.cli` does after `from .x import name`).  Each call
records a span with its name, start, end, parent, op id, the process's
peak RSS at the end, and counters derived from its arguments and
result.  Spans stay in memory until the caller writes them out.

Run as a script, this module is one of two child processes:

    PYTHONPATH=src python3 perfbench/tracer.py serve
    PYTHONPATH=src python3 perfbench/tracer.py trace REQUEST.json RESULT.json

`serve` is the warm worker: it imports `pendq.cli`, makes one warm-up
call, prints "ready", then runs one `cli.main` call per JSON argv line
on stdin and answers each with one JSON result line.  The benchmark
itself never imports pendq, so the children it starts do not inherit
a large peak RSS from it.

`trace` runs one op traced.  REQUEST.json holds {"calls": [argv, argv, argv]}.  The child imports
`pendq.cli`, then calls `cli.main` traced, untraced and traced again.
The first call starts from a fresh process, so its peak RSS per stage
means something; the last two, both past first-call costs, give the
tracing overhead.  When the first call takes longer than LONG_CALL_S
the third is skipped: first-call costs and tracing a few spans cannot
be seen against seconds of work, and the call would only add run time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback

# public functions traced, by pendq module
TRACED = {
    "config": ("load_config", "build_config"),
    "suspension": ("suspension_modes",),
    "cavity": ("effective_requirements",),
    "budget": (
        "suspension_thermal_asd",
        "mirror_thermal_asd",
        "quantum_noise_asd",
        "sql_asd",
        "total_budget",
        "sub_sql_band",
        "spectra_to_csv",
        "spectra_to_json",
    ),
    "svgplot": ("render_loglog",),
    "ringdown": (
        "synthesize_ringdown",
        "trace_to_csv",
        "trace_from_csv",
        "measure_q",
        "bandpass",
        "envelope",
        "bin_average",
        "fit_exponential",
    ),
}

ROOT_SPAN = "cli.main"
LONG_CALL_S = 2.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts at one span boundary; bytes_moved is computed from array sizes."""
    if name == "ringdown.trace_from_csv":
        text_bytes = _text_bytes(args[0])
        return {
            "rows": int(result.samples.size),
            "text_bytes": text_bytes,
            "bytes_moved": text_bytes + result.samples.nbytes,
        }
    if name == "ringdown.trace_to_csv":
        text_bytes = _text_bytes(result)
        return {
            "rows": int(args[0].samples.size),
            "text_bytes": text_bytes,
            "bytes_moved": args[0].samples.nbytes + text_bytes,
        }
    if name == "ringdown.synthesize_ringdown":
        return {"bytes_moved": result.samples.nbytes}
    if name == "ringdown.measure_q":
        traces = args[0] if args else kwargs["traces"]
        if not isinstance(traces, (list, tuple)):
            traces = [traces]
        return {"samples_in": sum(int(tr.samples.size) for tr in traces)}
    if name == "ringdown.bandpass":
        return {"bytes_moved": args[0].samples.nbytes + result.samples.nbytes}
    if name == "ringdown.envelope":
        times, amps = result
        return {
            "samples_out": int(times.size),
            "bytes_moved": args[0].samples.nbytes + times.nbytes + amps.nbytes,
        }
    if name == "ringdown.bin_average":
        times, amps = args[0], args[1]
        out = (result.bin_centers, result.means, result.standard_errors, result.counts)
        return {
            "samples_in": int(len(times)),
            "bytes_moved": times.nbytes + amps.nbytes + sum(a.nbytes for a in out),
        }
    if name == "ringdown.fit_exponential":
        binned = args[0]
        arrays = (binned.bin_centers, binned.means, binned.standard_errors, binned.counts)
        return {"n_bins": int(result.n_bins), "bytes_moved": sum(a.nbytes for a in arrays)}
    if name in ("budget.spectra_to_csv", "budget.spectra_to_json", "svgplot.render_loglog"):
        return {"text_bytes": _text_bytes(result)}
    if name.endswith("_asd"):
        return {"grid_points": int(result.frequencies.size)}
    return {}


class Tracer:
    """In-memory span recorder; one instance per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_hwm_mb"] = _peak_rss_mb()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.update(_counters(name, args, kwargs, result))
            return result

        return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every TRACED function wherever a pendq module binds it; returns the patches."""
    import pendq.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for n, m in sys.modules.items() if n == "pendq" or n.startswith("pendq.")]
    patches = []
    for module_name, names in TRACED.items():
        home = sys.modules[f"pendq.{module_name}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(f"{module_name}.{name}", original)
            for module in modules:
                if getattr(module, name, None) is original:
                    patches.append((module, name, original))
                    setattr(module, name, wrapper)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, name, original in patches:
        setattr(module, name, original)


def call_main(main, argv: list[str]) -> dict:
    """Run cli.main in-process with stdout/stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a result the checks count as a failure
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _serve() -> None:
    import pendq.cli as cli

    replies = sys.stdout  # call_main swaps sys.stdout during each call
    call_main(cli.main, ["check"])
    replies.write("ready\n")
    replies.flush()
    for line in sys.stdin:
        replies.write(json.dumps(call_main(cli.main, json.loads(line))) + "\n")
        replies.flush()


def _trace(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]
    start = time.perf_counter()
    import pendq.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    results = []
    for op, (argv, traced) in enumerate(zip(calls, (True, False, True))):
        if op == 2 and results[0]["seconds"] > LONG_CALL_S:
            break
        tracer.op = op
        patches = install(tracer) if traced else []
        try:
            if traced:
                with tracer.span(ROOT_SPAN):
                    result = call_main(cli.main, argv)
            else:
                result = call_main(cli.main, argv)
        finally:
            uninstall(patches)
        results.append(result)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "calls": results, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        _serve()
    else:
        _trace(sys.argv[2], sys.argv[3])
