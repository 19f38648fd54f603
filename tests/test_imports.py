"""Every pendq module imports cleanly when it is the first one loaded.

Each module is imported in a fresh interpreter with the package's
__init__ bypassed, so the module really loads first and pulls in its
own dependencies in its own order.  An import cycle that only bites
under one order fails here rather than for a user.
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pendq

SRC = str(Path(pendq.__file__).resolve().parent.parent)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(pendq.__path__))

# an empty package object stands in for pendq/__init__.py
IMPORT_FIRST = """
import importlib, importlib.util, sys
sys.path.insert(0, {src!r})
spec = importlib.util.find_spec("pendq")
sys.modules["pendq"] = importlib.util.module_from_spec(spec)
importlib.import_module("pendq.{name}")
"""


def test_every_module_is_covered():
    assert {"budget", "cavity", "cli", "config", "core"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FIRST.format(src=SRC, name=name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_imports():
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import pendq"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_traced_names_resolve():
    # the benchmark's per-layer trace wraps these by name; read, never run
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )
    for module_name, names in traced.items():
        module = importlib.import_module(f"pendq.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pendq.{module_name}.{name}"


def test_benchmark_codec_contract(tmp_path, monkeypatch):
    # the benchmark's trace times these two layers through the CLI and
    # encodes the text each one returns or takes; a CLI that stopped
    # calling them would leave the layers unreached
    from pendq import cli, ringdown

    calls = []
    to_csv, from_csv = ringdown.trace_to_csv, ringdown.trace_from_csv

    def spy_to_csv(trace):
        text = to_csv(trace)
        calls.append(("trace_to_csv", type(text)))
        return text

    def spy_from_csv(text):
        calls.append(("trace_from_csv", type(text)))
        return from_csv(text)

    monkeypatch.setattr(ringdown, "trace_to_csv", spy_to_csv)
    monkeypatch.setattr(ringdown, "trace_from_csv", spy_from_csv)
    trace = tmp_path / "trace.csv"
    assert cli.main(["ringdown", "synth", "--duration", "240", "--noise-rms", "0.1",
                     "--out", str(trace)]) == 0
    assert calls == [("trace_to_csv", str)]
    assert cli.main(["ringdown", "fit", str(trace), "--out", str(tmp_path / "fit.json")]) == 0
    assert calls == [("trace_to_csv", str), ("trace_from_csv", str)]
