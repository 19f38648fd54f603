"""Terminal-summary hook: one PASS/FAIL line per acceptance criterion.

pytest captures stdout, so the acceptance tests cannot reliably print
their own verdict lines; this hook collects their outcomes and writes
one line each into the summary, where capture is off.

It also puts the checkout's src/ on PYTHONPATH, so the `python -m
pendq.cli` children some tests start import the same tree that
pyproject's `pythonpath = ["src"]` gives the tests themselves.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_ACCEPTANCE_OUTCOMES: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
