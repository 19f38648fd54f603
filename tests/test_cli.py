"""End-to-end command-line behavior, exit codes, and file formats."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pendq import budget, cli
from pendq.config import load_config

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "ringdown_example.csv"

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


def test_config_file_missing(capsys):
    assert cli.main(["check", "--config", "/nonexistent/exp.yaml"]) == 3
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pendq.cli", "check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "overall:     pass" in proc.stdout


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
    band = budget.thermal_sub_sql_band(
        config.model, config.grid(), config.violin_mode_count
    )
    assert payload["sub_sql_band_hz"] == [list(b) for b in band]
