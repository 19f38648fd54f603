"""README's Python API example runs, and its command lines parse and
run, as written against this checkout."""

import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pendq import cli, ringdown

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


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # the files the lines read, beside the ones earlier lines write
    monkeypatch.chdir(tmp_path)
    Path("survey.csv").write_text(
        "mass_kg,dissipation_per_s\n7e-6,4.4e-6,this work\n1e-3,1e-4\n40,1e-8,LIGO\n"
    )
    for seed in (1, 2, 3):
        trace = ringdown.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=seed)
        Path(f"run{seed}.csv").write_text(ringdown.trace_to_csv(trace))
    for argv in _readme_commands():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv[1:])
        err = capsys.readouterr().err
        assert code in ((0, 1) if argv[1] == "check" else (0,)), (shlex.join(argv), err)
        assert err == "", shlex.join(argv)
