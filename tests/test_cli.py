"""End-to-end command-line behavior, exit codes, and file formats."""

import argparse
import codecs
import contextlib
import dataclasses
import gc
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from pendq import budget, cli
from pendq.cavity import effective_requirements
from pendq import ringdown as ringdown_mod
from pendq.config import (
    PAPER_PRESET,
    build_config,
    load_config,
    load_raw,
    paper_preset,
    set_numeric,
)
from pendq.core import (
    _CSV_FLOAT,
    ConfigError,
    DomainError,
    FitError,
    InsufficientDataError,
    ShapeError,
)
from pendq.suspension import measurement_band_edge, pendulum_mode, violin_modes

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "ringdown_example.csv"
README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(cli.__file__).resolve().parent.parent)

CSV_HEADER = "frequency_hz,asd_m_per_sqrthz,label"
FIRST_ROW = "1.00000000e+01,3.81076576e-14,suspension thermal"
LAST_ROW = "1.00000000e+04,8.73623263e-20,SQL"


def test_budget_csv_stdout(capsys):
    assert cli.main(["budget", "--out", "-", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == FIRST_ROW
    assert lines[-1] == LAST_ROW
    assert len(lines) == 1 + 5 * 2000  # three components + total + SQL
    labels = {ln.rsplit(",", 1)[-1] for ln in lines[1:]}
    assert labels == {"suspension thermal", "mirror thermal", "quantum noise", "total", "SQL"}


def test_budget_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["budget", "--out", str(a)]) == 0
    assert cli.main(["budget", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_budget_json(tmp_path):
    out = tmp_path / "budget.json"
    assert cli.main(["budget", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())["spectra"]
    assert [s["label"] for s in payload] == [
        "suspension thermal",
        "mirror thermal",
        "quantum noise",
        "total",
        "SQL",
    ]
    assert all(len(s["frequency_hz"]) == 2000 for s in payload)


def test_budget_components_selection(capsys):
    assert cli.main(["budget", "--out", "-", "--components", "suspension"]) == 0
    labels = {
        ln.rsplit(",", 1)[-1] for ln in capsys.readouterr().out.splitlines()[1:]
    }
    assert labels == {"suspension thermal", "total", "SQL"}
    # empty list: bare quantum-limit reference only
    assert cli.main(["budget", "--out", "-", "--components", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {ln.rsplit(",", 1)[-1] for ln in lines[1:]} == {"SQL"}
    assert len(lines) == 1 + 2000


def test_budget_quantum_omitted_without_probe(capsys):
    assert (
        cli.main(["budget", "--out", "-", "--set", "cavity.probe_power=0"]) == 0
    )
    labels = {
        ln.rsplit(",", 1)[-1] for ln in capsys.readouterr().out.splitlines()[1:]
    }
    assert labels == {"suspension thermal", "mirror thermal", "total", "SQL"}


def test_budget_unknown_component(capsys):
    assert cli.main(["budget", "--out", "-", "--components", "gravity"]) == 2
    assert "unknown budget component" in capsys.readouterr().err


def test_budget_repeated_component(capsys):
    argv = ["budget", "--out", "-", "--components", "suspension,mirror,suspension"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: budget component 'suspension' is given twice\n"


def test_budget_svg(tmp_path):
    out = tmp_path / "budget.svg"
    assert cli.main(["budget", "--out", str(out), "--format", "svg"]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline ") == 5
    assert "Displacement noise budget" in svg
    assert "suspension thermal" in svg


def test_budget_overlay_scatter(tmp_path):
    overlay = tmp_path / "survey.csv"
    overlay.write_text(
        "mass_kg,dissipation_per_s,label\n"
        "1e-9,1e-2,levitated sphere\n"
        "40.0,1e-6,interferometer mirror\n"
    )
    out = tmp_path / "survey.svg"
    assert cli.main(
        ["budget", "--out", str(out), "--format", "svg", "--overlay", str(overlay)]
    ) == 0
    svg = out.read_text()
    assert svg.count("<circle ") == 2
    assert "<polygon " in svg           # starred configuration marker
    assert "this configuration" in svg
    assert "Dissipation rate vs suspended mass" in svg


def test_budget_overlay_needs_svg(tmp_path, capsys):
    overlay = tmp_path / "survey.csv"
    overlay.write_text("mass_kg,dissipation_per_s\n1e-9,1e-2\n")
    rc = cli.main(["budget", "--out", "-", "--overlay", str(overlay)])
    assert rc == 2
    assert "--format svg" in capsys.readouterr().err


def test_budget_overlay_bad_header(tmp_path, capsys):
    overlay = tmp_path / "survey.csv"
    overlay.write_text("kg,rate\n1e-9,1e-2\n")
    rc = cli.main(
        ["budget", "--out", str(tmp_path / "x.svg"), "--format", "svg",
         "--overlay", str(overlay)]
    )
    assert rc == 2


def test_check_passes_on_preset(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "overall:     pass" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["passed"] is True
    assert math.isclose(payload["eq1"]["margin"], 91.74762324591579, rel_tol=1e-9)
    assert math.isclose(payload["eq2_edge_hz"], 396.02549560698026, rel_tol=1e-9)
    assert math.isclose(
        payload["band_overlap_hz"][0][0], payload["eq2_edge_hz"], rel_tol=1e-12
    )


def test_check_fails_without_trap(capsys):
    assert cli.main(["check", "--set", "cavity.trap_power=0"]) == 1
    out = capsys.readouterr().out
    assert "overall:     FAIL" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["passed"] is False


def _reference_check_lines(report) -> list[str]:
    # the text check printed when it formatted each report field itself
    out = []
    eff = report.effective
    out.append(f"pendulum:    f_m = {eff.omega_m / (2 * math.pi):.4g} Hz, Q_m = {eff.q_m:.3g}")
    out.append(
        f"effective:   f_eff = {eff.omega_eff_hz:.4g} Hz, Q_eff = {eff.q_eff:.3g}, "
        f"k_opt/k_g = {eff.spring_ratio:.3g}"
        + (", anti-damped spring" if eff.anti_damped else "")
    )
    verdict1 = "pass" if report.eq1.passed else "FAIL"
    out.append(
        f"Qf product:  Q_eff*w_eff = {report.eq1.lhs:.4g} rad/s vs k_B*T/hbar = "
        f"{report.eq1.rhs:.4g} rad/s -> {verdict1}, margin {report.eq1.margin:.4g}"
    )
    in_band = eff.omega_eff_hz >= report.eq2_edge_hz
    verdict2 = "pass" if in_band else "FAIL"
    out.append(
        f"rate band:   requirement met above {report.eq2_edge_hz:.4g} Hz; "
        f"f_eff {'inside' if in_band else 'below'} -> {verdict2}"
    )
    out.append("sub-SQL:     " + _reference_bands(report.sub_sql_band_hz))
    out.append("overlap:     " + _reference_bands(report.band_overlap_hz))
    out.append(f"overall:     {'pass' if report.passed else 'FAIL'}")
    return out


def _reference_bands(bands) -> str:
    if not bands:
        return "none"
    return "; ".join(f"{lo:.4g} - {hi:.4g} Hz" for lo, hi in bands)


def _seeded_check_overrides(seed: int) -> list[str]:
    rng = random.Random(seed)
    power = 0.0 if seed % 8 == 0 else 10 ** rng.uniform(-4.0, math.log10(0.5))
    overrides = [
        f"cavity.trap_power={power!r}",
        f"environment.temperature={rng.uniform(4.0, 300.0)!r}",
        f"grid.points={rng.randint(500, 8000)}",
    ]
    if rng.random() < 0.5:
        overrides.append("material.measured_q=null")
    return overrides


def test_check_text_matches_the_reference_formatter(capsys):
    eq1_verdicts, band_verdicts = set(), set()
    for seed in range(40):
        overrides = _seeded_check_overrides(seed)
        config = load_config(None, overrides)
        band = budget.thermal_sub_sql_band(config.model, config.grid())
        report = effective_requirements(config.model, config.cavity, band)
        assert report.passed == (report.eq1.passed and report.in_band)
        rc = cli.main(["check", *(arg for o in overrides for arg in ("--set", o))])
        assert rc == (0 if report.passed else 1)
        expected = "\n".join(_reference_check_lines(report)) + "\n"
        expected += json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected
        eq1_verdicts.add(report.eq1.passed)
        band_verdicts.add(report.in_band)
    # the seeds pass and fail each requirement
    assert eq1_verdicts == band_verdicts == {True, False}


def test_check_set_errors(capsys):
    assert cli.main(["check", "--set", "cavity.finesses=100"]) == 2
    assert cli.main(["check", "--set", "cavity.finesse=shiny"]) == 2
    assert cli.main(["check", "--set", "cavity.finesse"]) == 2
    capsys.readouterr()


def test_ringdown_synth_and_fit(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert cli.main(["ringdown", "synth", "--out", str(trace)]) == 0
    text = trace.read_text()
    assert text.splitlines()[0] == "time_s,value"
    assert len(text.splitlines()) == 1 + 240 * 50
    # same seed reproduces the file byte for byte
    again = tmp_path / "again.csv"
    assert cli.main(["ringdown", "synth", "--out", str(again)]) == 0
    assert again.read_bytes() == trace.read_bytes()

    assert cli.main(["ringdown", "fit", str(trace)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert abs(fit["q"] / 2000.0 - 1.0) < 1e-3  # noiseless synthesis
    assert fit["n_bins"] == 10


def test_ringdown_fit_golden_example(capsys):
    assert cli.main(["ringdown", "fit", str(FIXTURE)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert math.isclose(fit["q"], 1972.876478549098, rel_tol=1e-7)
    assert math.isclose(fit["tau_s"], 285.44822151892777, rel_tol=1e-7)
    assert math.isclose(fit["q_rel_error"], 0.03687493593198209, rel_tol=1e-6)


def test_ringdown_fit_aggregates(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        p = tmp_path / f"t{seed}.csv"
        assert cli.main(
            ["ringdown", "synth", "--noise-rms", "0.4", "--seed", str(seed),
             "--out", str(p)]
        ) == 0
        paths.append(str(p))
    assert cli.main(["ringdown", "fit", *paths]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert cli.main(["ringdown", "fit", paths[0]]) == 0
    single = json.loads(capsys.readouterr().out)
    assert pooled["q_rel_error"] < single["q_rel_error"]


def test_ringdown_fit_flat_trace(tmp_path, capsys):
    rows = ["time_s,value"] + [f"{i * 0.02:.8e},0.0" for i in range(5000)]
    flat = tmp_path / "flat.csv"
    flat.write_text("\n".join(rows) + "\n")
    rc = cli.main(["ringdown", "fit", str(flat), "--bin-seconds", "5"])
    assert rc == 4
    assert "analysis error" in capsys.readouterr().err


def test_ringdown_fit_missing_file(tmp_path, capsys):
    rc = cli.main(["ringdown", "fit", str(tmp_path / "absent.csv")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_ringdown_fit_non_utf8_trace(tmp_path, capsys):
    bad = tmp_path / "utf16.csv"
    bad.write_bytes(b"\xff\xfe" + "time_s,value\n0,1\n".encode("utf-16-le"))
    assert cli.main(["ringdown", "fit", str(bad)]) == 4
    assert "malformed trace CSV" in capsys.readouterr().err


def test_ringdown_fit_reads_a_byte_order_mark(tmp_path, capsys):
    assert cli.main(["ringdown", "fit", str(FIXTURE)]) == 0
    expected = capsys.readouterr().out
    marked = tmp_path / "excel.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + FIXTURE.read_bytes())
    assert cli.main(["ringdown", "fit", str(marked)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "text",
    [" \ufefftime_s,value\n0,1\n1,2\n", "time_s,value\n\ufeff0,1\n1,2\n"],
    ids=["after-whitespace", "before-a-row"],
)
def test_ringdown_fit_rejects_a_byte_order_mark_elsewhere(text, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(text, encoding="utf-8")
    assert cli.main(["ringdown", "fit", str(trace)]) == 4
    assert "analysis error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,1\nnan,2\n", "trace times must be finite"),
        ("0,1\n1e400,2\n", "trace times must be finite"),
        ("0,1,5\n1,2,5\n", "trace CSV rows need 2 fields (time_s,value), got 3"),
        ("0\n1\n", "trace CSV rows need 2 fields (time_s,value), got 1"),
    ],
)
def test_ringdown_fit_trace_errors_exit_4(body, message, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("time_s,value\n" + body)
    assert cli.main(["ringdown", "fit", str(trace)]) == 4
    assert message in capsys.readouterr().err


def test_a_pooled_fit_names_the_file_it_cannot_parse(tmp_path, capsys):
    good = tmp_path / "a.csv"
    assert cli.main(["ringdown", "synth", "--out", str(good)]) == 0
    text = good.read_text()
    bad = tmp_path / "b.csv"
    bad.write_text(text[: text.index("\n", 20_000) + 1] + "1,2,3\n")
    assert cli.main(["ringdown", "fit", str(good), str(bad), str(good)]) == 4
    assert capsys.readouterr().err == (
        f"analysis error: trace CSV rows need 2 fields (time_s,value), got 3 (in {bad})\n"
    )
    # a shorthand's inputs follow the file
    assert cli.main(["ringdown", "fit", str(bad), "--f0", "2.2"]) == 4
    assert capsys.readouterr().err == (
        f"analysis error: trace CSV rows need 2 fields (time_s,value), got 3 (in {bad})"
        " (inputs: --set ringdown.f0=2.2)\n"
    )


def test_sweep_q_ideal_scaling(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(
        ["sweep", "--param", "fiber.radius", "--from", "2.5e-7", "--to", "1e-6",
         "--steps", "4", "--metric", "q_ideal", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fiber.radius,q_ideal"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 4
    for (r1, q1), (r2, q2) in zip(rows, rows[1:]):
        assert math.isclose(q1 / q2, (r2 / r1) ** 2, rel_tol=1e-6)


@pytest.mark.parametrize("metric", ["eq2_edge_hz", "f_violin1"])
def test_sweep_mode_metrics_match_each_rows_model(metric, tmp_path):
    # the fiber length moves the pendulum frequency, and with it the band
    # edge, under the preset's measured Q, which takes no null
    out = tmp_path / "sweep.csv"
    assert cli.main(
        ["sweep", "--param", "fiber.length", "--from", "0.0125", "--to", "0.1",
         "--steps", "4", "--log", "--metric", metric, "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"fiber.length,{metric}"
    expected = []
    for length in np.geomspace(0.0125, 0.1, 4):
        raw = load_raw(None)
        set_numeric(raw, "fiber.length", float(length))
        model = build_config(raw).model
        if metric == "eq2_edge_hz":
            mode = pendulum_mode(model)
            value = measurement_band_edge(
                mode.frequency, mode.quality_factor, model.env.temperature
            )
        else:
            value = violin_modes(model, 1)[0].frequency_hz
        expected.append(_CSV_FLOAT % value)
    cells = [ln.split(",")[1] for ln in lines[1:]]
    assert cells == expected
    assert len(set(cells)) == 4


def _unmeasured(model):
    """The edge of Eq. (2) where the pendulum Q is the diluted model's."""
    mode = pendulum_mode(dataclasses.replace(model, measured_pendulum_q=None))
    return measurement_band_edge(mode.frequency, mode.quality_factor, model.env.temperature)


def test_check_takes_a_null_measured_pendulum_q(capsys):
    assert cli.main(["check", "--set", "suspension.measured_pendulum_q=null"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["eq2_edge_hz"] == _unmeasured(load_config().model) == 90.56353008943381


def test_sweep_reaches_the_diluted_pendulum_q(tmp_path):
    # under the measured Q the edge does not move with the fiber radius;
    # under the diluted one it does
    out = tmp_path / "sweep.csv"
    assert cli.main(
        ["sweep", "--param", "fiber.radius", "--from", "0.5e-6", "--to", "4e-6",
         "--steps", "4", "--log", "--metric", "eq2_edge_hz",
         "--set", "suspension.measured_pendulum_q=null", "--out", str(out)]
    ) == 0
    expected = []
    for radius in np.geomspace(0.5e-6, 4e-6, 4):
        raw = load_raw(None)
        set_numeric(raw, "fiber.radius", float(radius))
        expected.append(_CSV_FLOAT % _unmeasured(build_config(raw).model))
    cells = [ln.split(",")[1] for ln in out.read_text().splitlines()[1:]]
    assert cells == expected
    assert len(set(cells)) == 4


def test_sweep_writes_nan_where_there_is_no_band(tmp_path):
    # above about 1e4 K the thermal noise never dips below the SQL
    out = tmp_path / "sweep.csv"
    assert cli.main(
        ["sweep", "--param", "environment.temperature", "--from", "1", "--to", "1e7",
         "--steps", "8", "--log", "--metric", "sub_sql_lo", "--out", str(out)]
    ) == 0
    text = out.read_bytes().decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "environment.temperature,sub_sql_lo"
    assert lines[5:] == [f"1.00000000e+0{k},nan" for k in range(4, 8)]
    assert all(not math.isnan(float(ln.split(",")[1])) for ln in lines[1:5])
    # every row as Python's % writes it
    rows = ["%.8e,%.8e" % tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert text == "\n".join([lines[0], *rows]) + "\n"


def test_sweep_log_spacing(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(
        ["sweep", "--param", "cavity.trap_power", "--from", "1e-3", "--to", "1e-1",
         "--steps", "5", "--log", "--metric", "omega_eff", "--out", str(out)]
    ) == 0
    rows = [tuple(map(float, ln.split(","))) for ln in out.read_text().splitlines()[1:]]
    ratios = [b[0] / a[0] for a, b in zip(rows, rows[1:])]
    assert all(math.isclose(r, ratios[0], rel_tol=1e-6) for r in ratios)
    # a stiff optical spring scales as sqrt(P)
    assert math.isclose(rows[-1][1] / rows[0][1], 10.0, rel_tol=0.01)


def test_sweep_errors(tmp_path, capsys):
    base = ["sweep", "--from", "1", "--to", "2", "--out", str(tmp_path / "x.csv")]
    assert cli.main([*base, "--param", "fiber.radius", "--steps", "1",
                     "--metric", "q_ideal"]) == 2
    assert cli.main([*base, "--param", "fiber.radius", "--steps", "3",
                     "--metric", "bogus"]) == 2
    assert cli.main([*base, "--param", "fiber.girth", "--steps", "3",
                     "--metric", "q_ideal"]) == 2
    assert cli.main([*base, "--param", "material.name", "--steps", "3",
                     "--metric", "q_ideal"]) == 2
    rc = cli.main(["sweep", "--param", "fiber.radius", "--from", "-1", "--to", "1",
                   "--steps", "3", "--log", "--metric", "q_ideal",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


def test_config_file_matches_set_flags(tmp_path):
    conf = tmp_path / "exp.yaml"
    conf.write_text("environment:\n  temperature: 77.0\nfiber:\n  length: 0.02\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["budget", "--config", str(conf), "--out", str(a)]) == 0
    assert cli.main(
        ["budget", "--set", "environment.temperature=77.0",
         "--set", "fiber.length=0.02", "--out", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()
    # bare exponents, strings to YAML, are numbers in a file as in --set
    conf.write_text("fiber:\n  radius: 4e-7\nsuspension:\n  measured_pendulum_q: 2.0e6\n")
    assert cli.main(["budget", "--config", str(conf), "--out", str(a)]) == 0
    assert cli.main(
        ["budget", "--set", "fiber.radius=4e-7",
         "--set", "suspension.measured_pendulum_q=2.0e6", "--out", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_missing(capsys):
    assert cli.main(["check", "--config", "/nonexistent/exp.yaml"]) == 3
    capsys.readouterr()


class _Pieces:
    def __init__(self):
        self.pieces = []

    def write(self, s):
        self.pieces.append(s)
        return len(s)


@pytest.mark.parametrize("n", [0, 1, cli._WRITE_CHARS, 3 * cli._WRITE_CHARS + 5])
def test_stdout_gets_the_text_in_pieces_like_a_file(n, monkeypatch):
    # one write would encode a second whole copy of a day-long record
    text = "".join(random.Random(n).choices("0123456789.,e-\n", k=n))
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._write_text("-", text)
    assert all(len(piece) <= cli._WRITE_CHARS for piece in stdout.pieces)
    assert "".join(stdout.pieces) == text
    assert len(stdout.pieces) == -(-n // cli._WRITE_CHARS)


# ---------------------------------------------------------------------------
# the process entry points: run freezes the collector, main leaves it alone
# ---------------------------------------------------------------------------

def test_both_process_entry_points_call_run():
    assert "sys.exit(run())" in Path(cli.__file__).read_text()
    pyproject = Path(SRC).parent / "pyproject.toml"
    assert 'pendq = "pendq.cli:run"' in pyproject.read_text()


@pytest.mark.parametrize(
    "argv, code",
    [(["check"], 0), (["check", "--set", "fiber.radius=1e-300"], 4)],
    ids=["pass", "analysis-error"],
)
def test_main_leaves_the_collector_as_it_was(argv, code, capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert cli.main(argv) == code
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_returns_main_and_freezes_on_every_way_out(monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    assert cli.run(["check", "--set", "cavity.trap_power=0.001"]) == 1
    assert frozen == [True]
    with pytest.raises(SystemExit):  # argparse exits on an unknown command
        cli.run(["no-such-command"])
    assert frozen == [True, True]
    capsys.readouterr()


# argv and exit code of calls that `python -m pendq.cli` makes in a fresh process
FRESH_CALLS = {
    "check-pass": (["check"], 0),
    "check-fail": (["check", "--set", "cavity.trap_power=0.001"], 1),
    "budget-file": (["budget", "--format", "json", "--out", "{out}"], 0),
    "fixture-fit": (["ringdown", "fit", str(FIXTURE)], 0),
}


@pytest.mark.parametrize("case", FRESH_CALLS)
def test_fresh_process_matches_in_process_main(case, tmp_path, capsys):
    warm, fresh = tmp_path / "warm.out", tmp_path / "fresh.out"
    argv, code = FRESH_CALLS[case]
    assert cli.main([a.format(out=warm) for a in argv]) == code
    out = capsys.readouterr().out.encode()
    proc = subprocess.run(
        [sys.executable, "-m", "pendq.cli", *[a.format(out=fresh) for a in argv]],
        capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, b"")
    if "{out}" in argv:
        assert fresh.read_bytes() == warm.read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [
        ["grid.f_min=100"],
        ["suspension.violin_modes=6", "grid.f_max=1e5"],
    ],
)
def test_check_reports_the_shared_sub_sql_band(overrides, capsys):
    argv = ["check"]
    for assignment in overrides:
        argv += ["--set", assignment]
    cli.main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    config = load_config(None, overrides)
    band = budget.thermal_sub_sql_band(config.model, config.grid())
    assert payload["sub_sql_band_hz"] == [list(b) for b in band]


def _numeric_keys():
    for section, fields in paper_preset().items():
        for key, value in fields.items():
            if value is None or isinstance(value, (int, float)):
                yield f"{section}.{key}"


EXTREME_VALUES = ("1e300", "1e-300", "-1e300", "0", "-1", ".inf", ".nan", "1e30", "1e-30")


@pytest.mark.filterwarnings("ignore")  # extreme inputs overflow and warn
@pytest.mark.parametrize("key", sorted(_numeric_keys()))
def test_extreme_overrides_exit_cleanly(key, tmp_path, capsys):
    out = str(tmp_path / "budget.csv")
    for value in EXTREME_VALUES:
        for argv in (["check"], ["budget", "--out", out]):
            rc = cli.main([*argv, "--set", f"{key}={value}"])
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 4), (argv, key, value, rc)
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["check", "--set", "test_mass.mass=1e300"], 4, "analysis error: OverflowError"),
        (["budget", "--out", "-", "--set", "cavity.probe_power=1e-300"], 4,
         "analysis error: ZeroDivisionError"),
        (["check", "--set", "grid.points=.inf"], 2, "expected an integer"),
        (["check", "--set", "suspension.violin_modes=.nan"], 2, "expected an integer"),
        (["check", "--set", "suspension.measured_pendulum_q=1e300"], 4,
         "analysis error: Qf product not finite"),
        (["check", "--set", "environment.temperature=1e300"], 4,
         "analysis error: Qf product not finite"),
        (["check", "--set", "grid.points=1e30"], 2, "grid.points: need 2..1000000"),
        (["check", "--set", "suspension.violin_modes=1e300"], 2,
         "suspension.violin_modes: need 0..10000"),
        (["check", "--set", "grid.f_max=.inf"], 2, "expected a finite number"),
        (["check", "--set", "suspension.measured_pendulum_q=.inf"], 2,
         "expected a finite number"),
        (["check", "--set", "fiber.radius=" + "9" * 401], 2, "expected a finite number"),
        (["ringdown", "fit", str(FIXTURE), "--f0", ".inf"], 2, "expected a finite number"),
    ],
)
def test_arithmetic_and_non_finite_count_errors(argv, code, message, capsys):
    assert cli.main(argv) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment, error",
    [("fiber.radius=1e-300", "ZeroDivisionError"), ("test_mass.mass=1e300", "OverflowError")],
)
def test_arithmetic_errors_name_their_inputs(assignment, error, tmp_path, capsys):
    assert cli.main(["check", "--set", assignment]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"analysis error: {error}: ")
    assert err.endswith(f" (inputs: --set {assignment})\n")
    key, value = assignment.split("=")
    section, field = key.split(".")
    config = tmp_path / "extreme.yaml"
    config.write_text(f"{section}:\n  {field}: {value}\n", encoding="utf-8")
    assert cli.main(["check", "--config", str(config), "--set", "grid.points=300"]) == 4
    assert capsys.readouterr().err.endswith(
        f" (inputs: --config {config}, --set grid.points=300)\n"
    )


def test_every_analysis_error_names_its_inputs(tmp_path, capsys):
    trap = "omega_m must be finite, got inf"
    assert cli.main(["check", "--set", "cavity.trap_power=1e300"]) == 4
    assert capsys.readouterr().err == (
        f"analysis error: {trap} (inputs: --set cavity.trap_power=1e300)\n"
    )
    config = tmp_path / "trap.yaml"
    config.write_text("cavity:\n  trap_power: 1e300\n", encoding="utf-8")
    assert cli.main(["check", "--config", str(config)]) == 4
    assert capsys.readouterr().err == f"analysis error: {trap} (inputs: --config {config})\n"
    argv = ["budget", "--out", "-", "--components", "quantum", "--set", "cavity.probe_power=0"]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == (
        "analysis error: zero probe power gives infinite shot noise"
        " (inputs: --set cavity.probe_power=0)\n"
    )
    # a FitError, given by a fit shorthand
    flat = tmp_path / "flat.csv"
    flat.write_text("time_s,value\n" + "".join(f"{i * 0.02:.8e},0.0\n" for i in range(5000)))
    assert cli.main(["ringdown", "fit", str(flat), "--bin-seconds", "5"]) == 4
    assert capsys.readouterr().err == (
        "analysis error: non-positive bin means cannot be log-fit"
        " (inputs: --set ringdown.bin_seconds=5)\n"
    )


def test_an_analysis_error_of_a_call_given_no_inputs_is_bare(tmp_path, capsys):
    assert cli.main(["ringdown", "synth", "--sample-rate", "8.8", "--out", "-"]) == 4
    assert capsys.readouterr().err == (
        "analysis error: sample_rate 8.8 Hz under-samples f0 = 2.2 Hz"
        " (the fit's envelope needs > 4 f0)\n"
    )
    short = tmp_path / "short.csv"
    short.write_text(ringdown_mod.trace_to_csv(
        ringdown_mod.RingdownTrace(sample_rate=50.0, samples=np.ones(200))))
    assert cli.main(["ringdown", "fit", str(short)]) == 4
    assert capsys.readouterr().err == (
        "analysis error: record holds 8.8 cycles of 2.2 Hz, need >= 10\n"
    )


def test_a_call_given_no_inputs_names_none():
    assert cli._inputs(cli._parser().parse_args(["check"])) == ""
    assert cli._inputs(cli._parser().parse_args(["ringdown", "synth", "--out", "-"])) == ""
    fit = cli._parser().parse_args(["ringdown", "fit", "a.csv", "--f0", "3"])
    assert cli._inputs(fit) == " (inputs: --set ringdown.f0=3)"


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    calls = [
        ["budget", "--format", "csv", "--set", "grid.points=300",
         "--set", "environment.temperature=4.2", "--out", "{dir}/first"],
        ["budget", "--format", "json", "--out", "{dir}/second"],
        ["check", "--set", "cavity.trap_power=0.003"],
    ]
    warm, fresh = tmp_path / "warm", tmp_path / "fresh"
    warm.mkdir()
    fresh.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for argv in calls:
        rc = cli.main([a.format(dir=warm) for a in argv])
        out = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "pendq.cli", *[a.format(dir=fresh) for a in argv]],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert (rc, out) == (proc.returncode, proc.stdout)
    for name in ("first", "second"):
        assert (warm / name).read_bytes() == (fresh / name).read_bytes()
    # the --set values of one call must not become the next call's default
    assert cli._parser().parse_args(["check"]).set == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--config", "{dir}/flow.yaml"], "flow.yaml: malformed YAML"),
        (["check", "--set", "fiber.radius=[1"], "fiber.radius: malformed YAML"),
        (["check", "--config", "{dir}/utf16.yaml"], "utf16.yaml: not UTF-8 text"),
        (["budget", "--format", "svg", "--overlay", "{dir}/utf16.csv", "--out", "-"],
         "utf16.csv: not UTF-8 text"),
        (["budget", "--format", "svg", "--overlay", "{dir}/one-cell.csv", "--out", "-"],
         "overlay row needs mass_kg,dissipation_per_s: '1e-9'"),
        (["budget", "--format", "svg", "--overlay", "{dir}/word.csv", "--out", "-"],
         "malformed overlay row '1e-9,fast': could not convert string to float: 'fast'"),
        (["sweep", "--param", "fiber.radius", "--from", "1e-7", "--to", "1e-6",
          "--steps", "1000000000000000000", "--metric", "q_ideal", "--out", "{dir}/s.csv"],
         "--steps must be <= 10000, got 1000000000000000000"),
        (["sweep", "--param", "fiber.radius", "--from", "1e-7", "--to", "1e-6",
          "--steps", "10001", "--metric", "q_ideal", "--out", "{dir}/s.csv"],
         "--steps must be <= 10000, got 10001"),
    ],
    ids=["yaml-file", "yaml-set", "utf16-config", "utf16-overlay", "overlay-one-cell",
         "overlay-word", "steps-1e18", "steps-10001"],
)
def test_malformed_config_inputs_exit_2(argv, message, tmp_path, capsys):
    (tmp_path / "flow.yaml").write_text("fiber:\n  radius: [1\n")
    (tmp_path / "one-cell.csv").write_text("mass_kg,dissipation_per_s\n1e-9\n")
    (tmp_path / "word.csv").write_text("mass_kg,dissipation_per_s\n1e-9,fast\n")
    (tmp_path / "utf16.yaml").write_bytes(b"\xff\xfe" + "fiber: {}\n".encode("utf-16-le"))
    (tmp_path / "utf16.csv").write_bytes(
        b"\xff\xfe" + "mass_kg,dissipation_per_s\n1e-9,1e-2\n".encode("utf-16-le")
    )
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--f0", "-1"], "config error: ringdown.f0: need > 0, got -1.0"),
        (["--bandwidth", "0"], "config error: ringdown.bandwidth: need > 0, got 0.0"),
        (["--bin-seconds", "long"], "config error: ringdown.bin_seconds: expected a number"),
    ],
    ids=["f0", "bandwidth", "bin-seconds"],
)
def test_ringdown_fit_flags_are_config_values(flags, message, capsys):
    assert cli.main(["ringdown", "fit", str(FIXTURE), *flags]) == 2
    assert message in capsys.readouterr().err


def test_ringdown_fit_flag_wins_over_set(capsys):
    def fit(*flags):
        assert cli.main(["ringdown", "fit", str(FIXTURE), *flags]) == 0
        return json.loads(capsys.readouterr().out)

    assert fit("--set", "ringdown.f0=2.21")["f0_hz"] == 2.21
    expected = fit("--f0", "2.2")
    assert fit("--f0", "2.2", "--set", "ringdown.f0=2.21") == expected
    assert fit("--set", "ringdown.f0=2.21", "--f0", "2.2") == expected
    # the flags of one call must not become the next call's default
    assert cli._parser().parse_args(["ringdown", "fit", "x.csv"]).ringdown_set == []


def test_sweep_over_a_nullable_key(capsys):
    argv = ["sweep", "--param", "test_mass.attachment_offset", "--from", "1e-3",
            "--to", "2e-3", "--steps", "3", "--metric", "omega_eff", "--out", "-"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "test_mass.attachment_offset,omega_eff"
    assert len(lines[1:]) == 3


def test_ringdown_fit_options_are_the_ringdown_section_and_refine():
    parser = cli._parser()
    fit = parser
    for name in ("ringdown", "fit"):
        subparsers = next(a for a in fit._actions if isinstance(a, argparse._SubParsersAction))
        fit = subparsers.choices[name]
    options = {s for action in fit._actions for s in action.option_strings}
    shorthands = {"--" + key.replace("_", "-"): key for key in PAPER_PRESET["ringdown"]}
    assert options - {"-h", "--help"} == {"--config", "--set", "--out", "--refine", *shorthands}
    for flag, key in shorthands.items():
        args = parser.parse_args(["ringdown", "fit", "x.csv", flag, "1"])
        assert args.ringdown_set == [f"ringdown.{key}=1"]


def test_ringdown_synth_options_are_synthesize_ringdowns_parameters(tmp_path):
    synth = cli._parser()
    for name in ("ringdown", "synth"):
        subparsers = next(a for a in synth._actions if isinstance(a, argparse._SubParsersAction))
        synth = subparsers.choices[name]
    parameters = inspect.signature(ringdown_mod.synthesize_ringdown).parameters
    assert set(parameters) <= {action.dest for action in synth._actions}
    # an optional flag not given takes the function's own default; the
    # noise makes the seed's default show
    out = tmp_path / "trace.csv"
    for flags, noise in (([], {}), (["--noise-rms", "0.4"], {"noise_rms": 0.4})):
        assert cli.main(["ringdown", "synth", *flags, "--out", str(out)]) == 0
        trace = ringdown_mod.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, **noise)
        assert out.read_bytes() == ringdown_mod.trace_to_csv(trace).encode("ascii")


def test_ringdown_section_keys_are_measure_q_parameters():
    parameters = inspect.signature(ringdown_mod.measure_q).parameters
    assert set(PAPER_PRESET["ringdown"]) <= set(parameters)


@pytest.mark.filterwarnings("ignore")  # extreme inputs overflow and warn
@pytest.mark.parametrize("key", sorted(PAPER_PRESET["ringdown"]))
def test_ringdown_fit_extreme_values_exit_cleanly(key, capsys):
    for value in EXTREME_VALUES:
        rc = cli.main(["ringdown", "fit", str(FIXTURE), "--set", f"ringdown.{key}={value}"])
        err = capsys.readouterr().err
        assert rc in (0, 2, 4), (key, value, rc)
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [["--duration", "1e15"], ["--sample-rate", "1e300"]],
    ids=["duration", "sample-rate"],
)
def test_ringdown_synth_bound(flags, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["ringdown", "synth", *flags, "--out", str(out)]) == 4
    # refused by the bound before any array exists, not by a MemoryError
    assert "MAX_SYNTH_SAMPLES" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_exits_4(monkeypatch, tmp_path, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(ringdown_mod, "synthesize_ringdown", exhausted)
    assert cli.main(["ringdown", "synth", "--out", str(tmp_path / "x.csv")]) == 4
    assert "analysis error: MemoryError: cannot allocate" in capsys.readouterr().err


# EXTREME_VALUES spells infinity and NaN as YAML does; the synth flags
# are parsed by float(), which spells them "inf" and "nan"
_FLOAT_SPELLING = {".inf": "inf", ".nan": "nan"}
SYNTH_FLAGS = (
    "--f0", "--q", "--sample-rate", "--duration", "--amplitude", "--noise-rms", "--drift-uhz"
)


@pytest.mark.filterwarnings("ignore")  # extreme inputs overflow and warn
@pytest.mark.parametrize("value", EXTREME_VALUES)
@pytest.mark.parametrize("flag", SYNTH_FLAGS)
def test_ringdown_synth_extreme_flags_exit_cleanly(flag, value, tmp_path, capsys):
    # at the default 240 s and 50 Hz each case writes 12 000 samples or is
    # refused before anything is allocated
    value = _FLOAT_SPELLING.get(value, value)
    out = tmp_path / "x.csv"
    rc = cli.main(["ringdown", "synth", f"{flag}={value}", "--out", str(out)])
    assert rc in (0, 4), (flag, value, rc)
    assert "Traceback" not in capsys.readouterr().err
    if rc == 0:
        assert len(out.read_text().splitlines()) == 12_001


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--noise-rms=nan", "noise_rms must be finite"),
        ("--drift-uhz=nan", "drift_uhz must be finite"),
        ("--drift-uhz=-1", "drift_uhz must be >= 0"),
        ("--seed=-1", "seed must be >= 0"),
    ],
)
def test_ringdown_synth_rejects_bad_arguments(flag, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["ringdown", "synth", flag, "--out", str(out)]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ringdown_synth_short_drifting_record(tmp_path, capsys):
    plain, drifting = tmp_path / "plain.csv", tmp_path / "drift.csv"
    base = ["ringdown", "synth", "--duration", "5", "--seed", "3"]
    assert cli.main([*base, "--out", str(plain)]) == 0
    assert cli.main([*base, "--drift-uhz", "1", "--out", str(drifting)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    plain_rows = plain.read_text().splitlines()
    drift_rows = drifting.read_text().splitlines()
    assert len(plain_rows) == len(drift_rows) == 251
    assert plain_rows != drift_rows


def test_budget_overlay_builds_no_budget(monkeypatch, tmp_path, capsys):
    overlay = tmp_path / "survey.csv"
    overlay.write_text("mass_kg,dissipation_per_s\n1e-9,1e-2\n")
    argv = ["budget", "--format", "svg", "--overlay", str(overlay), "--out"]
    assert cli.main([*argv, str(tmp_path / "a.svg")]) == 0

    def no_budget(*args, **kwargs):
        raise AssertionError("the survey figure computed a budget")

    monkeypatch.setattr(budget, "model_components", no_budget)
    assert cli.main([*argv, str(tmp_path / "b.svg"), "--set", "cavity.probe_power=0"]) == 0
    assert (tmp_path / "b.svg").read_bytes() == (tmp_path / "a.svg").read_bytes()
    rc = cli.main([*argv, "-", "--components", "quantum", "--set", "cavity.probe_power=0"])
    assert rc == 2
    assert "takes no --components" in capsys.readouterr().err


def test_substrate_loss_angle_zero_exits_2(capsys):
    assert cli.main(["check", "--set", "test_mass.substrate_loss_angle=0"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: substrate_loss_angle must be > 0, got 0.0\n"


# ---------------------------------------------------------------------------
# reading a trace: pipes, byte order marks, line ends
# ---------------------------------------------------------------------------

def _fit_through_a_pipe(data: bytes) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pendq.cli", "ringdown", "fit", "/dev/stdin"],
        input=data, capture_output=True, timeout=300,
    )


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_ringdown_fit_reads_a_pipe(bom, capsys):
    # the fixture is several times a pipe's 64 KB, so it is read in slices
    assert cli.main(["ringdown", "fit", str(FIXTURE)]) == 0
    expected = capsys.readouterr().out.encode()
    proc = _fit_through_a_pipe(bom + FIXTURE.read_bytes())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_ringdown_fit_line_ends_give_the_same_json(end, tmp_path, capsys):
    assert cli.main(["ringdown", "fit", str(FIXTURE)]) == 0
    expected = capsys.readouterr().out
    other = tmp_path / "ends.csv"
    other.write_bytes(FIXTURE.read_bytes().replace(b"\n", end.encode()))
    assert cli.main(["ringdown", "fit", str(other)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe" + "time_s,value\n0,1\n".encode("utf-16-le"),
        b"\xef\xbb\xbftime_s,value\n0,1\n\xe9\n",
        b"time_s,value\n" + b"0,1\n" * 30000 + b"\xc3",
    ],
    ids=["utf-16", "latin-1-after-a-mark", "truncated-at-the-end"],
)
def test_ringdown_fit_non_utf8_message(data, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    # the message a text-mode read gives
    with pytest.raises(UnicodeDecodeError) as exc:
        with open(bad, encoding="utf-8-sig") as fh:
            fh.read()
    assert cli.main(["ringdown", "fit", str(bad)]) == 4
    message = f"malformed trace CSV {bad}: not UTF-8 text ({exc.value})"
    assert message in capsys.readouterr().err


def _text_mode_error(path) -> str:
    with pytest.raises(UnicodeDecodeError) as exc:
        with open(path, encoding="utf-8-sig") as fh:
            fh.read()
    return str(exc.value)


# head and rows, padded to end offset bytes past the read's first buffer
def _rows_to(head: bytes, offset: int) -> bytes:
    body = head + b"0,1\n" * ((ringdown_mod._READ_BYTES + offset - len(head)) // 4)
    return body + b"#" * (ringdown_mod._READ_BYTES + offset - len(body))


SLICED_ERRORS = {
    # an invalid byte, then a character cut at the end, in the second slice
    "bad-byte-past-the-first-slice": _rows_to(b"time_s,value\n", 4000) + b"\xe9\n",
    "mark-then-bad-byte-past-the-first-slice":
        _rows_to(b"\xef\xbb\xbftime_s,value\n", 4000) + b"\xff\n",
    "truncated-after-the-first-slice": _rows_to(b"time_s,value\n", 10) + b"\xe2\x82",
    # a sequence the first slice cuts after 2 bytes, invalid at its third
    "invalid-across-the-slices": _rows_to(b"time_s,value\n", -2) + b"\xe2\x82A\n",
    "mark-and-invalid-across-the-slices":
        _rows_to(b"\xef\xbb\xbftime_s,value\n", -1) + b"\xf0\x9fA\n",
}


@pytest.mark.parametrize("data", SLICED_ERRORS.values(), ids=SLICED_ERRORS)
def test_ringdown_fit_non_utf8_message_past_the_first_slice(data, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    expected = _text_mode_error(bad)
    assert cli.main(["ringdown", "fit", str(bad)]) == 4
    assert capsys.readouterr().err == (
        f"analysis error: malformed trace CSV {bad}: not UTF-8 text ({expected})\n"
    )
    # a pipe delivers the bytes in other slices, and gives the same message
    proc = _fit_through_a_pipe(data)
    assert proc.returncode == 4
    assert proc.stderr.decode() == (
        f"analysis error: malformed trace CSV /dev/stdin: not UTF-8 text ({expected})\n"
    )


class _Trickle(io.FileIO):
    """A file read at most 2 bytes at a time, as a slow pipe may deliver it."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:2])


TRICKLED = {
    "mark-and-multibyte": "\ufefftime_s,value\n0,1\n\u00e9\u20ac\U0001f600\n".encode(),
    "mark-only": b"\xef\xbb\xbf",
    "mark-twice": "\ufeff\ufeffx".encode(),
    "no-mark": "time_s,value\n\u20ac\n".encode(),
    "empty": b"",
    "bad-after-a-mark": b"\xef\xbb\xbfab\xe9c",
    "bad-after-a-cut-character": "ab\u20ac".encode() + b"\xe2\x82\xe2",
    "cut-mark-at-the-end": b"\xef\xbb",
    "cut-character-at-the-end": "ab".encode() + b"\xf0\x9f\x98",
}


@pytest.mark.parametrize("data", TRICKLED.values(), ids=TRICKLED)
def test_sliced_decode_matches_a_whole_stream_decode(data, tmp_path, monkeypatch):
    # a byte order mark or a character cut across slices of 2 or 3 bytes
    # decodes, or fails, as one decode of the whole stream does
    path = tmp_path / "trickle.csv"
    path.write_bytes(data)
    try:  # the text a whole decode gives, or the message of its error
        expected = codecs.decode(data, "utf-8-sig")
    except UnicodeDecodeError as exc:
        expected = f"malformed trace CSV {path}: not UTF-8 text ({exc})"
    for read_bytes in (2, 3):
        monkeypatch.setattr(ringdown_mod, "_READ_BYTES", read_bytes)
        with _Trickle(path) as fh:
            try:
                assert "".join(ringdown_mod._text_slices(fh, str(path))) == expected
            except DomainError as exc:
                assert str(exc) == expected


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_sliced_decode_translates_line_ends_the_slices_cut(end, tmp_path, monkeypatch):
    # 2-byte slices end between "\r" and "\n", and on the last "\r"
    monkeypatch.setattr(ringdown_mod, "_READ_BYTES", 2)
    path = tmp_path / "trickle.csv"
    text = "\ufefftime_s,value\n0,1\n1,2\n\u20ac\n2,3\n"
    path.write_bytes(text.replace("\n", end).encode())
    with _Trickle(path) as fh:
        slices = list(ringdown_mod._text_slices(fh, str(path)))
    assert "".join(slices) == text[1:]


def test_pipe_is_read_in_whole_buffers():
    # a pipe returns at most 64 KB a read; each slice still fills the
    # buffer, so a 20 MB record takes 20 slices and the final empty one
    data = b"0,1\n" * (5 << 20)
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with open(read_end, "rb", buffering=0) as fh:
            slices = list(ringdown_mod._text_slices(fh, "<pipe>"))
    finally:
        writer.join()
    assert len(slices) <= 21
    assert "".join(slices) == data.decode()


SURVEY = (
    "mass_kg,dissipation_per_s,label\n"
    "1e-9,1e-2,levitated sphere\n"
    "40.0,1e-6,interferometer mirror\n"
)


def test_budget_overlay_byte_order_mark_and_crlf(tmp_path):
    # spreadsheets save CSV with a byte order mark and CRLF line ends
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(SURVEY)
    marked.write_bytes(b"\xef\xbb\xbf" + SURVEY.replace("\n", "\r\n").encode("utf-8"))
    for name in ("plain", "marked"):
        argv = ["budget", "--format", "svg", "--overlay", str(tmp_path / f"{name}.csv")]
        assert cli.main([*argv, "--out", str(tmp_path / f"{name}.svg")]) == 0
    assert (tmp_path / "marked.svg").read_bytes() == (tmp_path / "plain.svg").read_bytes()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", [0, 1], ids=["mass_kg", "dissipation_per_s"])
def test_budget_overlay_non_finite_cell_exits_2(column, value, tmp_path, capsys):
    cells = ["1e-9", "1e-2", "b"]
    cells[column] = value
    overlay = tmp_path / "survey.csv"
    overlay.write_text("mass_kg,dissipation_per_s,label\n40.0,1e-6,a\n" + ",".join(cells) + "\n")
    argv = ["budget", "--format", "svg", "--overlay", str(overlay), "--out", "-"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert repr(",".join(cells)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--set", "grid.f_max=1e300"],  # omega^2 overflows
        ["budget", "--format", "csv", "--out", "-", "--set", "grid.f_min=1e-300"],  # omega^4 is 0
    ],
)
def test_overflowing_grid_overrides_exit_4_without_warnings(argv):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pendq.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("analysis error: spectrum ")


# extreme but schema-valid calls: each exits cleanly with at most one
# stderr line under -W error, where a numpy warning would be a traceback
# (exit 1) and read as a failed requirement.  {big}, {huge}, {wide} and
# {steep} are trace files written by the fixture below
NO_MEASURED_Q = ["--set", "material.measured_q=null", "--set"]
SWEEP_RADIUS = ["sweep", "--param", "fiber.radius", "--from", "2e-7", "--to", "2e-6",
                "--steps", "3", "--metric", "sub_sql_lo", "--out", "-"]
EXTREME_CALLS = {
    "kappa-1e-300": (["check", *NO_MEASURED_Q, "material.thermal_conductivity=1e-300"], 0, ""),
    "kappa-1e-320": (["check", *NO_MEASURED_Q, "material.thermal_conductivity=1e-320"], 0, ""),
    "budget-kappa-1e-320": (
        ["budget", "--out", "-", *NO_MEASURED_Q, "material.thermal_conductivity=1e-320"], 0, ""
    ),
    "sweep-kappa-1e-320": (
        [*SWEEP_RADIUS, *NO_MEASURED_Q, "material.thermal_conductivity=1e-320"], 0, ""
    ),
    # Q does not depend on scale: measure_q fits these records rescaled
    "amplitude-1e160": (["ringdown", "fit", "{big}"], 0, ""),
    "amplitude-1e308": (["ringdown", "fit", "{huge}"], 0, ""),
    "times-1e308": (["ringdown", "fit", "{wide}"], 4,
                    "analysis error: trace time steps must be finite, got inf"),
    # two finite steps whose mean, the median step, is past the float range
    "median-step-1.7e308": (["ringdown", "fit", "{steep}"], 4,
                            "analysis error: trace time steps must be finite, got inf"),
    "radius": (["check", "--set", "fiber.radius=1e-300"], 4,
               "analysis error: ZeroDivisionError"),
    "mass": (["check", "--set", "test_mass.mass=1e300"], 4, "analysis error: OverflowError"),
    "temperature": (["check", "--set", "environment.temperature=1e300"], 4,
                    "analysis error: Qf product not finite"),
    "detuning": (["check", "--set", "cavity.trap_detuning_in_kappa=1e300"], 4,
                 "analysis error: OverflowError"),
    "probe-power": (
        ["budget", "--format", "csv", "--out", "-", "--set", "cavity.probe_power=1e-300"], 4,
        "analysis error: ZeroDivisionError",
    ),
    "bandwidth": (["ringdown", "fit", str(FIXTURE), "--bandwidth", "1e-300"], 4,
                  "analysis error: settling trim"),
    "f0": (["ringdown", "fit", str(FIXTURE), "--f0", "1e300"], 4, "analysis error: band "),
    "synth-rate-4-f0": (["ringdown", "synth", "--sample-rate", "8.8", "--out", "-"], 4,
                        "analysis error: sample_rate 8.8 Hz under-samples f0 = 2.2 Hz"),
    "fit-4-s": (["ringdown", "fit", "{short}"], 4,
                "analysis error: record holds 8.8 cycles of 2.2 Hz, need >= 10"),
    "zero-probe-power": (
        ["budget", "--components", "quantum", "--out", "-", "--set", "cavity.probe_power=0"], 4,
        "analysis error: zero probe power gives infinite shot noise",
    ),
    # a warning that -W error raises is an analysis error named by its type
    "trap-on-resonance": (["check", "--set", "cavity.trap_detuning_in_kappa=0"], 4,
                          "analysis error: UserWarning: "),
    "thick-fiber-check": (["check", "--set", "fiber.radius=5e-4"], 4,
                          "analysis error: UserWarning: "),
    "thick-fiber-budget": (["budget", "--out", "-", "--set", "fiber.radius=6e-4"], 4,
                           "analysis error: UserWarning: "),
}


@pytest.fixture(scope="module")
def extreme_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("extreme")
    paths = {"big": root / "big.csv", "huge": root / "huge.csv", "wide": root / "wide.csv",
             "steep": root / "steep.csv"}
    for name, amplitude in (("big", 1e160), ("huge", 1e308)):
        trace = ringdown_mod.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, amplitude=amplitude,
                                                 noise_rms=0.4, seed=1)
        paths[name].write_text(ringdown_mod.trace_to_csv(trace))
    paths["wide"].write_text("time_s,value\n-1e308,1\n1e308,2\n")
    paths["steep"].write_text("time_s,value\n-1.7e308,1\n0,2\n1.7e308,3\n")
    # 4 s at 50 Hz: 8.8 cycles of the preset's 2.2 Hz
    paths["short"] = root / "short.csv"
    paths["short"].write_text(ringdown_mod.trace_to_csv(
        ringdown_mod.RingdownTrace(sample_rate=50.0, samples=np.ones(200))))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("case", EXTREME_CALLS)
def test_extreme_calls_exit_cleanly_under_warnings_as_errors(case, extreme_traces):
    argv, code, message = EXTREME_CALLS[case]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pendq.cli",
         *(arg.format(**extreme_traces) for arg in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
    assert (proc.returncode, proc.stderr[: len(message)]) == (code, message)


def _fit_under_warnings_as_errors(path, data=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "pendq.cli", "ringdown", "fit", str(path)],
        input=data, capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )


@pytest.fixture(scope="module")
def fixture_fit_stdout():
    proc = _fit_under_warnings_as_errors(FIXTURE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


# line end and prefix of each layout the trace reader accepts
FIXTURE_LAYOUTS = {"CRLF": ("\r\n", ""), "CR": ("\r", ""), "mark": ("\n", "\ufeff"),
                   "leading-blank-line": ("\n", "\n")}


@pytest.mark.parametrize("layout", FIXTURE_LAYOUTS)
def test_trace_layouts_fit_alike_under_warnings_as_errors(layout, fixture_fit_stdout,
                                                          tmp_path):
    end, prefix = FIXTURE_LAYOUTS[layout]
    path = tmp_path / "layout.csv"
    path.write_bytes((prefix + FIXTURE.read_text().replace("\n", end)).encode())
    proc = _fit_under_warnings_as_errors(path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == fixture_fit_stdout


def test_piped_trace_fits_alike_under_warnings_as_errors(fixture_fit_stdout):
    # a spreadsheet's copy, with a byte order mark and CRLF line ends, on a pipe
    data = ("\ufeff" + FIXTURE.read_text().replace("\n", "\r\n")).encode()
    proc = _fit_under_warnings_as_errors("/dev/stdin", data)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == fixture_fit_stdout


DEEP = "[" * 3000 + "]" * 3000


def test_deeply_nested_yaml_is_a_config_error(tmp_path):
    # the YAML parser recurses once per level and runs out of stack
    config = tmp_path / "deep.yaml"
    config.write_text(f"grid:\n  points: {DEEP}\n", encoding="utf-8")
    for argv, where in ((["--set", f"grid.points={DEEP}"], "grid.points"),
                        (["--config", str(config)], str(config))):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pendq.cli", "check", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
        )
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: {where}: malformed YAML: ")


def test_a_warning_is_one_stderr_line():
    argv = ["check", "--set", "fiber.radius=5e-4"]
    proc = subprocess.run(
        [sys.executable, "-m", "pendq.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: UserWarning: fiber aspect ratio l/r = 100.0 <= 100; thin-fiber model may be"
        " inaccurate (inputs: --set fiber.radius=5e-4)\n"
    )
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore")
        cli.main(argv)
    assert proc.stdout == out.getvalue()


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (ConfigError("bad"), 2, "config error: bad"),
        (FileNotFoundError("gone"), 3, "i/o error: gone"),
        # pendq's own refusals are bare
        (DomainError("out of domain"), 4, "analysis error: out of domain"),
        (ShapeError("mismatch"), 4, "analysis error: mismatch"),
        (FitError("no fit"), 4, "analysis error: no fit"),
        (InsufficientDataError("too few"), 4, "analysis error: too few"),
        # any other failure is named by its type
        (OverflowError("too big"), 4, "analysis error: OverflowError: too big"),
        (ZeroDivisionError("by zero"), 4, "analysis error: ZeroDivisionError: by zero"),
        (MemoryError(), 4, "analysis error: MemoryError: "),
        (ValueError("odd"), 4, "analysis error: ValueError: odd"),
        (UserWarning("raised"), 4, "analysis error: UserWarning: raised"),
    ],
)
def test_one_rule_maps_failures_to_exit_codes(exc, code, err, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "effective_requirements", fail)
    assert cli.main(["check", "--set", "grid.points=300"]) == code
    inputs = " (inputs: --set grid.points=300)" if code == 4 else ""
    assert capsys.readouterr().err == f"{err}{inputs}\n"


SWEEP_OFFSET = ["sweep", "--param", "test_mass.attachment_offset", "--steps", "3",
                "--metric", "q_ideal", "--out", "-"]


@pytest.mark.parametrize(
    "ends, message",
    [
        (["--from", "inf", "--to", "1e-4"], "expected a finite number, got inf"),
        (["--from=-inf", "--to", "1e-4", "--log"], "--log sweeps need positive endpoints"),
        (["--from", "1e-4", "--to", "inf", "--log"], "expected a finite number, got inf"),
        # the spacing overflows, and the first step still takes --from as given
        (["--from=-1e308", "--to", "1e308"], "attachment_offset must be > 0, got -1e+308"),
    ],
)
def test_a_non_finite_sweep_value_is_a_config_error(ends, message, capsys):
    # the spacing of an infinite end warns nowhere: its step refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*SWEEP_OFFSET, *ends]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(f"{message}\n")
    assert len(err.splitlines()) == 1
