"""Budget output writers: the vectorised CSV, JSON and SVG writers and
the run-based sub-SQL band finder against the per-value loops they
replaced.

The references here are those loops; the new code must match them
exactly, byte for byte and band for band.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pendq import budget as bud
from pendq import cli, svgplot
from pendq.budget import Budget, NoiseSpectrum
from pendq.config import build_config, load_config, load_raw, set_numeric
from pendq.core import _CSV_FLOAT, _json_float_bytes, _sci_digits
from pendq.svgplot import Curve, render_loglog


# ---------------------------------------------------------------------------
# references: the per-value writers and the band loop
# ---------------------------------------------------------------------------

def _reference_csv(spectra) -> str:
    lines = [bud.CSV_HEADER]
    for spec in spectra:
        for f, a in zip(spec.frequencies, spec.asd):
            lines.append(f"{_CSV_FLOAT % f},{_CSV_FLOAT % a},{spec.label}")
    return "\n".join(lines) + "\n"


def _reference_json(spectra) -> str:
    payload = {
        "spectra": [
            {
                "label": spec.label,
                "frequency_hz": [float(_CSV_FLOAT % v) for v in spec.frequencies],
                "asd_m_per_sqrthz": [float(_CSV_FLOAT % v) for v in spec.asd],
            }
            for spec in spectra
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_fmt_cells(data, to_pixel) -> np.ndarray:
    # the polyline's old f"{_fmt(px(x))},{_fmt(py(y))}" cells, one per value
    cells = np.array([svgplot._fmt(to_pixel(v)).encode("ascii") for v in data])
    return cells.view(np.uint8).reshape(len(cells), -1)


def _reference_band(budget):
    freqs = budget.frequencies
    log_ratio = np.log(budget.total.asd) - np.log(budget.sql.asd)
    below = log_ratio < 0.0

    def crossing(i, j):
        lf0, lf1 = math.log(freqs[i]), math.log(freqs[j])
        r0, r1 = log_ratio[i], log_ratio[j]
        t = (0.0 - r0) / (r1 - r0)
        return math.exp(lf0 + t * (lf1 - lf0))

    bands = []
    n = freqs.size
    i = 0
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        f_lo = float(freqs[0]) if i == 0 else crossing(i - 1, i)
        f_hi = float(freqs[-1]) if j == n - 1 else crossing(j, j + 1)
        bands.append((f_lo, f_hi))
        i = j + 1
    return bands


# ---------------------------------------------------------------------------
# CSV and JSON
# ---------------------------------------------------------------------------

# d * 10^k with 1-9 significant digits in [1e-99, 1e99), decimal
# exponents -5, -4, 15 and 16 drawn often: there json's float repr
# switches between fixed and scientific notation
_DIGITS = st.integers(1, 9).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
_EXPONENT = st.one_of(st.integers(-99, 98), st.sampled_from([-5, -4, 15, 16]))
_DECIMALS = st.builds(lambda d, e: float(f"{d}e{e - len(str(d)) + 1}"), _DIGITS, _EXPONENT)
_VALUES = st.one_of(_DECIMALS, st.floats(min_value=1e-99, max_value=1e99))
_LABELS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['say "SQL"', "back\\slash", "µ-thermal ≤ SQL", "total"]),
)


@st.composite
def _spectra(draw):
    grids = [
        np.unique(draw(st.lists(_VALUES, min_size=1, max_size=12)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    spectra = []
    for _ in range(draw(st.integers(0, 4))):
        grid = draw(st.sampled_from(grids))
        if draw(st.booleans()):
            grid = grid.copy()  # an equal grid that is another array
        asd = draw(st.lists(_VALUES, min_size=grid.size, max_size=grid.size))
        spectra.append(NoiseSpectrum(grid, np.array(asd), draw(_LABELS)))
    return spectra


@settings(max_examples=300, deadline=None)
@given(_spectra())
@example([])
@example([NoiseSpectrum(np.array([1e-5, 1e16]), np.array([1.5e-18, 2.0]), "nul\0 label")])
def test_csv_and_json_match_per_value_writers(spectra):
    assert bud.spectra_to_csv(spectra) == _reference_csv(spectra)
    assert bud.spectra_to_json(spectra) == _reference_json(spectra)


# the design workload's extreme grid sizes, liquid-helium and room
# temperature, and 700 points
@pytest.mark.parametrize("points", [500, 700, 8000])
@pytest.mark.parametrize("temperature", [4.2, 300.0])
def test_budget_outputs_match_per_value_writers(points, temperature):
    cfg = load_config(None, [f"grid.points={points}", f"environment.temperature={temperature}"])
    grid = cfg.grid()
    components = bud.model_components(cfg.model, bud.COMPONENT_NAMES, grid, cavity=cfg.cavity)
    b = bud.total_budget(components, cfg.model.test_mass.mass, grid)
    spectra = [*b.components, b.total, b.sql]
    assert bud.spectra_to_csv(spectra) == _reference_csv(spectra)
    assert bud.spectra_to_json(spectra) == _reference_json(spectra)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_VALUES, _VALUES.map(lambda v: -v), st.floats()), max_size=20))
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
@example([1e-5, 1e-4, 1e15, 1e16, 9.99999999e-5, 9.999999995e15, 1234567891234567.0])
@example([1e-36, 1e-37, 1e52, 1e53, 1.5e-18, 2.5e-30, 999999999.5, 0.5e-20])
def test_json_cells_match_float_repr(values):
    cells = _json_float_bytes(np.array(values, dtype=float))
    got = [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]
    assert got == [json.dumps(float(_CSV_FLOAT % v)) for v in values]


def test_sci_digits_exact_path_spans_two_powers_of_ten():
    # ASDs near 1e-18 need 10^26: two exact powers, not the Python fallback
    x = np.geomspace(1e-36, 9e52, 2001)
    ok, digits, e = _sci_digits(x)
    assert ok.mean() > 0.99
    assert [f"{d / 1e8:.8f}e{k:+03d}" for d, k in zip(digits[ok], e[ok])] == [
        _CSV_FLOAT % v for v in x[ok]
    ]


def test_sci_digits_near_ties_match_percent_format():
    # d + 0.5 +- delta in the last digit, delta 1e-9..1e-5 (below 1e-7 the
    # float is the tie or its neighbour), at every decimal exponent of the
    # two-step exact path; -14 and 30 scale by exactly 10^+-22, -15 and 31
    # by the first power beyond it
    rng = np.random.default_rng(17)
    exponent = np.repeat(np.arange(-36, 53), 400)
    delta = 10.0 ** rng.uniform(-9, -5, exponent.size) * rng.choice([-1.0, 1.0], exponent.size)
    d = rng.integers(10**8, 10**9 - 1, exponent.size)
    x = (d + 0.5 + delta) * 10.0 ** (exponent - 8.0)
    ok, digits, e = _sci_digits(x)
    assert ok[np.abs(delta) > 2e-6].all()
    assert [f"{n // 10**8}.{n % 10**8:08d}e{k:+03d}" for n, k in zip(digits[ok], e[ok])] == [
        _CSV_FLOAT % v for v in x[ok]
    ]


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _render_both(curves):
    new = render_loglog(curves, "t", "x", "y")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgplot, "_fmt_cells", _reference_fmt_cells)
        old = render_loglog(curves, "t", "x", "y")
    return new, old


def test_svg_ties_and_clipped_points_match():
    # 16 decades on both axes: 770/16 = 48.125 and 450/16 = 28.125 px per
    # decade, so odd decades land on exact .xx5 ties of the second decimal
    decades = Curve("decades", 10.0 ** np.arange(17), 10.0 ** -np.arange(17.0))
    # a spike above the plot whose y pixel is -0.002, printed "-0.00",
    # and one far above it, clipped outside the plot
    x = np.geomspace(1.0, 1e16, 2000)
    y = np.geomspace(1e-16, 1.0, 2000)
    y[1000] = 10.0 ** ((50.0 + 0.002) / 28.125)
    y[1500] = 1e200
    new, old = _render_both([decades, Curve("spike", x, y)])
    assert new == old
    assert "128.12," in new  # 128.125, rounded half to even
    assert ",-0.00 " in new
    assert ",-" in new.replace(",-0.00 ", "")  # the clipped point


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 60),
    st.tuples(st.integers(-30, 30), st.integers(1, 20)),
    st.lists(st.floats(min_value=1e-200, max_value=1e200), min_size=2, max_size=60),
)
def test_svg_matches_per_value_writer(n, x_span, y_values):
    lo, width = x_span
    x = np.geomspace(10.0**lo, 10.0 ** (lo + width), n)
    y = np.resize(np.array(y_values), n)
    new, old = _render_both([Curve("c", x, y), Curve("d", x, y[::-1])])
    assert new == old


def _linear(v, log10=math.log10):
    return v


def _log_pixel(v, log10=math.log10):
    return 80 + (log10(v) + 20) / 16 * 770


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(-1e6, 1e6),
            st.floats(-1e300, 1e300),  # widened fallback cells
            st.integers(-10**6, 10**6).map(lambda k: (k + 0.5) / 100),  # near ties
            st.integers(-10**5, 10**5).map(lambda k: k / 8),  # exact ties
            st.floats(-0.005, 0.0),  # "-0.00"
        ),
        min_size=1,
        max_size=20,
    )
)
def test_fmt_cells_match_percent_2f(values):
    data = np.array(values)
    cells = svgplot._fmt_cells(data, _linear)
    assert [bytes(r).replace(b"\0", b"").decode() for r in cells] == [
        f"{v:.2f}" for v in values
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=20))
def test_fmt_cells_of_log_pixels_match_math_log10(values):
    data = np.array(values)
    cells = svgplot._fmt_cells(data, _log_pixel)
    assert [bytes(r).replace(b"\0", b"").decode() for r in cells] == [
        f"{_log_pixel(v):.2f}" for v in values
    ]


# ---------------------------------------------------------------------------
# sub-SQL band
# ---------------------------------------------------------------------------

def _budget_of(signs, magnitudes):
    grid = np.geomspace(10.0, 1e4, len(signs))
    sql = NoiseSpectrum(grid, 1e-18 * (grid / 10.0) ** -1.0, "SQL")
    asd = sql.asd * np.exp(np.array(signs) * np.resize(magnitudes, len(signs)))
    thermal = NoiseSpectrum(grid, asd, "suspension thermal")
    return Budget((thermal,), sql)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=40),
    st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=5),
)
@example([-1.0] * 7, [0.3])  # all below: one band, both edges the grid's
@example([1.0] * 7, [0.3])  # none below
@example([0.0] * 7, [0.3])  # exactly at the SQL is not below
@example([-1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0], [0.2, 1.0])  # runs at both edges
@example([-1.0], [0.1])
@example([1.0, -1.0], [0.1])
def test_sub_sql_band_matches_loop(signs, magnitudes):
    budget = _budget_of(signs, magnitudes)
    assert bud.sub_sql_band(budget) == _reference_band(budget)



# ---------------------------------------------------------------------------
# Shared grid work keys on equal values, not on identity
# ---------------------------------------------------------------------------

def _render_per_value(curves):
    # the per-value cells, every curve's x laid out afresh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgplot, "_fmt_cells", _reference_fmt_cells)
        mp.setattr(svgplot.np, "array_equal", lambda a, b: False)
        return render_loglog(curves, "t", "x", "y")


def _preset_spectra(points=700):
    cfg = load_config(None, [f"grid.points={points}"])
    grid = cfg.grid()
    components = bud.model_components(cfg.model, bud.COMPONENT_NAMES, grid, cavity=cfg.cavity)
    b = bud.total_budget(components, cfg.model.test_mass.mass, grid)
    return [*b.components, b.total, b.sql]


def _assert_outputs_match_per_value_writers(spectra):
    assert bud.spectra_to_csv(spectra) == _reference_csv(spectra)
    assert bud.spectra_to_json(spectra) == _reference_json(spectra)
    curves = [Curve(s.label, s.frequencies, s.asd) for s in spectra]
    assert render_loglog(curves, "t", "x", "y") == _render_per_value(curves)


def test_spectra_on_equal_grid_copies_match_per_value_writers():
    spectra = [NoiseSpectrum(s.frequencies.copy(), s.asd, s.label) for s in _preset_spectra()]
    assert all(a.frequencies is not b.frequencies for a, b in zip(spectra, spectra[1:]))
    _assert_outputs_match_per_value_writers(spectra)


def test_middle_spectrum_on_its_own_grid_matches_per_value_writers():
    spectra = _preset_spectra()
    own = _preset_spectra(500)[1]  # 10 Hz - 10 kHz in 500 points
    middle = len(spectra) // 2
    spectra[middle] = NoiseSpectrum(own.frequencies, own.asd, "own grid")
    _assert_outputs_match_per_value_writers(spectra)
    # and an equal length grid that differs in one point
    shifted = spectra[0].frequencies.copy()
    shifted[3] = np.nextafter(shifted[3], math.inf)
    spectra[middle] = NoiseSpectrum(shifted, spectra[0].asd, "shifted grid")
    _assert_outputs_match_per_value_writers(spectra)


def _reference_sweep(param, values, metric):
    # a config and a grid built afresh at every step
    rows = []
    for v in values:
        raw = load_raw(None)
        set_numeric(raw, param, float(v))
        cfg = build_config(raw)
        bands = bud.thermal_sub_sql_band(cfg.model, cfg.grid())
        lo, hi = max(bands, key=lambda b: b[1] / b[0]) if bands else (math.nan, math.nan)
        rows.append(f"{_CSV_FLOAT % v},{_CSV_FLOAT % (lo if metric == 'sub_sql_lo' else hi)}")
    return "\n".join([f"{param},{metric}", *rows]) + "\n"


@pytest.mark.parametrize(
    "param, start, stop, log",
    [
        ("grid.points", 500.0, 800.0, False),  # the grid moves at every step
        ("grid.f_max", 5e3, 2e4, True),
        ("fiber.radius", 2.5e-7, 2e-6, True),  # the grid is built once
    ],
)
@pytest.mark.parametrize("metric", ["sub_sql_lo", "sub_sql_hi"])
def test_sweep_matches_a_loop_that_builds_every_grid(param, start, stop, log, metric, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--param", param, "--from", repr(start), "--to", repr(stop),
            "--steps", "4", "--metric", metric, "--out", str(out)]
    assert cli.main(argv + (["--log"] if log else [])) == 0
    values = (np.geomspace if log else np.linspace)(start, stop, 4)
    assert out.read_text() == _reference_sweep(param, values, metric)


# ---------------------------------------------------------------------------
# Byte identity of the design outputs
# ---------------------------------------------------------------------------

PINNED_SHA256 = {
    ("budget", "--format", "csv"):
        "b91a733ffb3321e035be63100d3472bb195d620937788ec18ac52f84913afb64",
    ("budget", "--format", "json"):
        "7e328aa7ed8dfa9821977cb221ae245d99eb7651f42dec283cb71500e6f2c284",
    ("budget", "--format", "svg"):
        "f143ffe003592ab18a8a29115930d0d40fe5e4656ae3990040a7822d14f61941",
    ("budget", "--format", "csv", "--set", "grid.points=8000"):
        "70f918bc280baa7eb324b2d51577a3f5225139a6442bed3fc67e8eff484cd896",
    ("budget", "--format", "json", "--set", "grid.points=8000"):
        "b636a1582333633125bdd76268c927f4dfd6d3088518174f5c1143324df17851",
    ("budget", "--format", "svg", "--set", "grid.points=8000"):
        "7e7782a1df80a4ef6f05d154002a1b0da70ba358a9c5c5c44d3377a69ce9b644",
    ("sweep", "--param", "fiber.radius", "--from", "2.5e-7", "--to", "2e-6", "--steps", "30",
     "--metric", "sub_sql_lo", "--log"):
        "008008a36cbc96de10ed534534f3e3ae7a1c1c468a56b53cf53301d4514a2972",
}


@pytest.mark.parametrize("argv", PINNED_SHA256, ids=[" ".join(a) for a in PINNED_SHA256])
def test_design_outputs_match_pinned_sha256(argv, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[argv]
