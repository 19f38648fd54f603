"""Every pendq module imports cleanly when it is the first one loaded.

Each module is imported in a fresh interpreter with the package's
__init__ bypassed, so the module really loads first and pulls in its
own dependencies in its own order.  An import cycle that only bites
under one order fails here rather than for a user.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pendq

SRC = str(Path(pendq.__file__).resolve().parent.parent)
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
