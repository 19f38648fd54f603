"""README's Python API example runs, and its command lines parse, as
written against this checkout."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pendq import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_api_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _readme_commands() -> list[list[str]]:
    """Each `pendq ...` line of README's sh blocks, continuations joined
    and comments dropped, split as a shell splits it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True) for ln in lines if ln.startswith("pendq ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert commands
    parser = cli._parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
