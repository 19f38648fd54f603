"""Noise-budget assembly: spectra, quadrature totals, sub-SQL bands, I/O."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from pendq import CONST, ConfigError, DomainError, ShapeError, TestMass
from pendq import budget as bud
from pendq import cavity as cav
from pendq import suspension as susp
from pendq.config import load_config
from pendq.suspension import Mode, ModeKind

mp.mp.dps = 40

CONFIG = load_config()
MODEL = CONFIG.model
GRID = bud.log_grid(10.0, 1e4, 2000)

SUS_AT_400 = 1.8665310330834277e-18     # pendulum + pitch + 2 violins
SUS_ONE_MODE_AT_400 = 1.5214490671899823e-18
MIR_AT_1000 = 4.2525145541530794e-19
SQL_AT_1000 = 8.736232627654428e-19
QN_MIN_RATIO = 1.0000020777456455
QN_TOUCH_HZ = 1074.9542943328538
BANDS = (
    (371.4696249162793, 1973.7942485588394),
    (2012.2137935887415, 3947.793826558089),
    (4033.6901971059065, 4209.746178341851),
)


def _preset_components():
    modes = susp.suspension_modes(MODEL, n_violin=2)
    mat = CONFIG.material
    return [
        bud.suspension_thermal_asd(modes, 300.0, GRID),
        bud.mirror_thermal_asd(
            CONFIG.test_mass, mat.young_modulus, mat.poisson_ratio, 300.0, GRID
        ),
    ]


# ---------------------------------------------------------------------------
# Grid and NoiseSpectrum
# ---------------------------------------------------------------------------

def test_log_grid():
    g = bud.log_grid(10.0, 1e4, 2000)
    assert g.size == 2000
    assert g[0] == 10.0 and g[-1] == pytest.approx(1e4, rel=1e-14)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(DomainError):
        bud.log_grid(0.0, 100.0, 10)
    with pytest.raises(DomainError):
        bud.log_grid(100.0, 10.0, 10)
    with pytest.raises(DomainError):
        bud.log_grid(10.0, 100.0, 1)


def test_noise_spectrum_validation():
    f = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        bud.NoiseSpectrum(f, np.ones(2), "x")
    with pytest.raises(ShapeError):
        bud.NoiseSpectrum(np.ones((2, 2)), np.ones((2, 2)), "x")
    with pytest.raises(DomainError):
        bud.NoiseSpectrum(np.array([0.0, 1.0]), np.ones(2), "x")
    with pytest.raises(DomainError):
        bud.NoiseSpectrum(np.array([1.0, 1.0]), np.ones(2), "x")  # not increasing
    with pytest.raises(DomainError):
        bud.NoiseSpectrum(f, np.array([1.0, 0.0, 1.0]), "x")
    with pytest.raises(DomainError):
        bud.NoiseSpectrum(f, np.array([1.0, math.inf, 1.0]), "x")


def test_noise_spectrum_is_immutable():
    spec = bud.NoiseSpectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]), "x")
    with pytest.raises(ValueError):
        spec.asd[0] = 2.0
    with pytest.raises(ValueError):
        spec.frequencies[0] = 0.5


def test_asd_at_power_law_is_exact():
    # log-log interpolation reproduces a pure power law between grid points
    f = np.geomspace(1.0, 100.0, 30)
    spec = bud.NoiseSpectrum(f, 5.0 * f**-1.7, "pl")
    for probe in (1.3, 7.7, 42.0, 99.0):
        assert math.isclose(spec.asd_at(probe), 5.0 * probe**-1.7, rel_tol=1e-12)
    assert math.isclose(spec.asd_at(1.0), 5.0, rel_tol=1e-12)
    with pytest.raises(DomainError):
        spec.asd_at(0.5)
    with pytest.raises(DomainError):
        spec.asd_at(101.0)


# ---------------------------------------------------------------------------
# Component spectra
# ---------------------------------------------------------------------------

def test_suspension_thermal_preset_value():
    spec = bud.suspension_thermal_asd(susp.suspension_modes(MODEL), 300.0, GRID)
    assert spec.label == "suspension thermal"
    assert math.isclose(spec.asd_at(400.0), SUS_AT_400, rel_tol=1e-9)


def test_suspension_thermal_single_mode_oracle():
    mode = susp.pendulum_mode(MODEL)
    spec = bud.suspension_thermal_asd([mode], 300.0, np.array([400.0]))
    assert math.isclose(float(spec.asd[0]), SUS_ONE_MODE_AT_400, rel_tol=1e-12)
    w = 2 * mp.pi * 400
    w_n = mp.mpf(mode.frequency)
    phi = 1 / mp.mpf("2e6")
    s = (
        (4 * mp.mpf("1.380649e-23") * 300 / w)
        * (w_n**2 * phi)
        / (mp.mpf("7e-6") * ((w_n**2 - w**2) ** 2 + w_n**4 * phi**2))
    )
    assert math.isclose(float(spec.asd[0]), float(mp.sqrt(s)), rel_tol=1e-13)


def test_suspension_thermal_on_resonance():
    # at omega = omega_n the PSD reduces to 4 k_B T Q / (m omega_n^3)
    w_n = 2 * math.pi * 100.0
    mode = Mode(ModeKind.PENDULUM, w_n, 50.0, 1e-3)
    spec = bud.suspension_thermal_asd([mode], 300.0, np.array([100.0]))
    expected = math.sqrt(4 * CONST.k_B * 300.0 * 50.0 / (1e-3 * w_n**3))
    assert math.isclose(float(spec.asd[0]), expected, rel_tol=1e-12)


def test_suspension_thermal_high_frequency_slope():
    # structural damping: ASD falls as omega^-2.5 far above resonance
    mode = susp.pendulum_mode(MODEL)
    f = np.geomspace(100 * mode.frequency_hz, 1000 * mode.frequency_hz, 50)
    a1 = bud.suspension_thermal_asd([mode], 300.0, f).asd
    a2 = bud.suspension_thermal_asd([mode], 300.0, 2 * f).asd
    np.testing.assert_allclose(a2 / a1, 2**-2.5, rtol=1e-3)


def test_suspension_thermal_scales_sqrt_temperature():
    modes = susp.suspension_modes(MODEL)
    cold = bud.suspension_thermal_asd(modes, 75.0, GRID)
    warm = bud.suspension_thermal_asd(modes, 300.0, GRID)
    np.testing.assert_allclose(warm.asd, 2 * cold.asd, rtol=1e-12)


def test_suspension_thermal_errors():
    with pytest.raises(ShapeError):
        bud.suspension_thermal_asd([], 300.0, GRID)
    with pytest.raises(DomainError):
        bud.suspension_thermal_asd(susp.suspension_modes(MODEL), 0.0, GRID)
    with pytest.raises(DomainError):
        bud.suspension_thermal_asd(
            susp.suspension_modes(MODEL), 300.0, np.array([0.0, 1.0])
        )


def test_mirror_thermal_preset_value():
    mat = CONFIG.material
    spec = bud.mirror_thermal_asd(
        CONFIG.test_mass, mat.young_modulus, mat.poisson_ratio, 300.0, GRID
    )
    assert math.isclose(spec.asd_at(1000.0), MIR_AT_1000, rel_tol=1e-9)
    # Brownian: ASD is a pure 1/sqrt(f) law
    np.testing.assert_allclose(
        spec.asd * np.sqrt(spec.frequencies),
        spec.asd[0] * math.sqrt(spec.frequencies[0]),
        rtol=1e-12,
    )


def test_mirror_thermal_coating_factor():
    mat = CONFIG.material
    tm = CONFIG.test_mass
    bare = bud.mirror_thermal_asd(
        TestMass(
            mass=tm.mass,
            disk_radius=tm.disk_radius,
            thickness=tm.thickness,
            substrate_loss_angle=tm.substrate_loss_angle,
            coating_loss_angle=tm.coating_loss_angle,
            coating_thickness=0.0,
            beam_radius=tm.beam_radius,
        ),
        mat.young_modulus,
        mat.poisson_ratio,
        300.0,
        np.array([1000.0]),
    )
    w = 2 * math.pi * 1000.0
    s_sub = (
        (4 * CONST.k_B * 300.0 / w)
        * (1 - mat.poisson_ratio**2)
        / (math.sqrt(math.pi) * mat.young_modulus * tm.beam_radius)
        * tm.substrate_loss_angle
    )
    assert math.isclose(float(bare.asd[0]), math.sqrt(s_sub), rel_tol=1e-12)
    with pytest.raises(DomainError):
        bud.mirror_thermal_asd(tm, mat.young_modulus, 0.5, 300.0, GRID)


def test_sql_asd():
    spec = bud.sql_asd(CONFIG.test_mass.mass, GRID)
    assert math.isclose(spec.asd_at(1000.0), SQL_AT_1000, rel_tol=1e-12)
    # free-mass SQL falls exactly as 1/f
    np.testing.assert_allclose(
        spec.asd * spec.frequencies, spec.asd[0] * spec.frequencies[0], rtol=1e-12
    )
    # and scales as 1/sqrt(m)
    heavier = bud.sql_asd(4 * CONFIG.test_mass.mass, GRID)
    np.testing.assert_allclose(heavier.asd, spec.asd / 2, rtol=1e-12)


def test_quantum_noise_touches_sql():
    qn = bud.quantum_noise_asd(CONFIG.cavity, CONFIG.test_mass.mass, GRID)
    sql = bud.sql_asd(CONFIG.test_mass.mass, GRID)
    ratio = qn.asd / sql.asd
    # imprecision/back-action product at the Heisenberg bound: >= SQL
    # everywhere, equality at the crossover
    assert float(np.min(ratio)) >= 1.0
    assert math.isclose(float(np.min(ratio)), QN_MIN_RATIO, rel_tol=1e-9)
    f_touch = GRID[int(np.argmin(ratio))]
    assert f_touch == pytest.approx(QN_TOUCH_HZ, rel=0.01)
    # shot-noise floor is flat at high frequency
    s_f = cav.radiation_pressure_force_psd(CONFIG.cavity)
    assert qn.asd_at(1e4) == pytest.approx(math.sqrt(CONST.hbar**2 / s_f), rel=1e-3)


def test_quantum_noise_requires_probe():
    cavity = cav.Cavity(
        round_trip_length=0.1, finesse=5000.0, wavelength=1.064e-6, probe_power=0.0
    )
    with pytest.raises(DomainError):
        bud.quantum_noise_asd(cavity, 7e-6, GRID)


# ---------------------------------------------------------------------------
# Budget assembly
# ---------------------------------------------------------------------------

def test_total_budget_quadrature():
    components = _preset_components()
    budget = bud.total_budget(components, CONFIG.test_mass.mass, GRID)
    manual = np.sqrt(sum(c.asd**2 for c in components))
    np.testing.assert_allclose(budget.total.asd, manual, rtol=1e-15)
    assert budget.sql.label == "SQL"


def test_budget_rejects_wrong_total():
    components = _preset_components()
    budget = bud.total_budget(components, CONFIG.test_mass.mass, GRID)
    corrupted = bud.NoiseSpectrum(GRID, budget.total.asd * 1.001, "total")
    with pytest.raises(DomainError):
        bud.Budget(budget.components, corrupted, budget.sql)


def test_budget_rejects_off_grid_component():
    components = _preset_components()
    other = bud.log_grid(10.0, 1e4, 500)
    stray = bud.suspension_thermal_asd(susp.suspension_modes(MODEL), 300.0, other)
    with pytest.raises(ShapeError):
        bud.total_budget([components[0], stray], CONFIG.test_mass.mass, GRID)
    with pytest.raises(ShapeError):
        bud.total_budget([], CONFIG.test_mass.mass, GRID)


def test_thermal_rss_excludes_quantum():
    components = _preset_components()
    qn = bud.quantum_noise_asd(CONFIG.cavity, CONFIG.test_mass.mass, GRID)
    budget = bud.total_budget(components + [qn], CONFIG.test_mass.mass, GRID)
    thermal = budget.thermal_rss()
    manual = np.sqrt(components[0].asd ** 2 + components[1].asd ** 2)
    np.testing.assert_allclose(thermal, manual, rtol=1e-15)
    only_quantum = bud.total_budget([qn], CONFIG.test_mass.mass, GRID)
    with pytest.raises(DomainError):
        only_quantum.thermal_rss()


# ---------------------------------------------------------------------------
# Sub-SQL band finding
# ---------------------------------------------------------------------------

def test_sub_sql_band_preset():
    budget = bud.total_budget(_preset_components(), CONFIG.test_mass.mass, GRID)
    bands = bud.sub_sql_band(budget)
    assert len(bands) == 3
    for (lo, hi), (lo_ref, hi_ref) in zip(bands, BANDS):
        assert math.isclose(lo, lo_ref, rel_tol=1e-9)
        assert math.isclose(hi, hi_ref, rel_tol=1e-9)


def test_thermal_sub_sql_band_matches_hand_built_budget():
    budget = bud.total_budget(_preset_components(), CONFIG.test_mass.mass, GRID)
    assert bud.thermal_sub_sql_band(MODEL, GRID, n_violin=2) == bud.sub_sql_band(budget)


def test_model_components_order_and_errors():
    names = ["quantum", "suspension", "mirror"]
    spectra = bud.model_components(MODEL, names, GRID, 2, cavity=CONFIG.cavity)
    assert [s.label for s in spectra] == [
        "quantum noise",
        "suspension thermal",
        "mirror thermal",
    ]
    for spec, ref in zip(spectra[1:], _preset_components()):
        assert np.array_equal(spec.asd, ref.asd)
    with pytest.raises(ConfigError, match="unknown budget component 'seismic'"):
        bud.model_components(MODEL, ["seismic"], GRID, 2)
    with pytest.raises(DomainError, match="cavity"):
        bud.model_components(MODEL, ["quantum"], GRID, 2)


def test_sub_sql_band_crossings_match_analytic_roots():
    # craft log(asd/sql) as a quadratic in ln f with roots at 300 and 3000
    sql = bud.sql_asd(1e-6, GRID)
    lr = 0.3 * (np.log(GRID) - math.log(300.0)) * (np.log(GRID) - math.log(3000.0))
    spec = bud.NoiseSpectrum(GRID, sql.asd * np.exp(lr), "crafted")
    budget = bud.total_budget([spec], 1e-6, GRID)
    bands = bud.sub_sql_band(budget)
    assert len(bands) == 1
    assert bands[0][0] == pytest.approx(300.0, rel=1e-3)
    assert bands[0][1] == pytest.approx(3000.0, rel=1e-3)


def test_sub_sql_band_clamps_to_grid_ends():
    sql = bud.sql_asd(1e-6, GRID)
    below = bud.NoiseSpectrum(GRID, 0.5 * sql.asd, "below")
    budget = bud.total_budget([below], 1e-6, GRID)
    assert bud.sub_sql_band(budget) == [(float(GRID[0]), float(GRID[-1]))]
    above = bud.NoiseSpectrum(GRID, 2.0 * sql.asd, "above")
    assert bud.sub_sql_band(bud.total_budget([above], 1e-6, GRID)) == []


def test_sub_sql_band_finds_multiple_windows():
    sql = bud.sql_asd(1e-6, GRID)
    factor = np.where(
        ((GRID > 100) & (GRID < 300)) | ((GRID > 2000) & (GRID < 5000)), 0.5, 2.0
    )
    spec = bud.NoiseSpectrum(GRID, sql.asd * factor, "windows")
    bands = bud.sub_sql_band(bud.total_budget([spec], 1e-6, GRID))
    assert len(bands) == 2
    (lo1, hi1), (lo2, hi2) = bands
    assert 99 < lo1 < 101 and 299 < hi1 < 301
    assert 1990 < lo2 < 2010 and 4980 < hi2 < 5020


def test_sub_sql_band_total_vs_thermal_only():
    components = _preset_components()
    qn = bud.quantum_noise_asd(CONFIG.cavity, CONFIG.test_mass.mass, GRID)
    budget = bud.total_budget(components + [qn], CONFIG.test_mass.mass, GRID)
    # quantum noise alone is >= SQL, so the full total never dips below it
    assert bud.sub_sql_band(budget, "total") == []
    assert len(bud.sub_sql_band(budget, "thermal-only")) == 3
    with pytest.raises(DomainError):
        bud.sub_sql_band(budget, "everything")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_csv_format():
    spec = bud.NoiseSpectrum(np.array([10.0, 20.0]), np.array([1e-18, 2e-18]), "a,b")
    text = bud.spectra_to_csv([spec])
    lines = text.splitlines()
    assert lines[0] == "frequency_hz,asd_m_per_sqrthz,label"
    assert lines[1] == "1.00000000e+01,1.00000000e-18,a,b"
    assert lines[2] == "2.00000000e+01,2.00000000e-18,a,b"
    assert text.endswith("\n")


def test_csv_deterministic():
    spectra = _preset_components()
    assert bud.spectra_to_csv(spectra) == bud.spectra_to_csv(spectra)
    n_rows = sum(s.frequencies.size for s in spectra)
    assert len(bud.spectra_to_csv(spectra).splitlines()) == n_rows + 1


def test_json_round_trip():
    spec = bud.NoiseSpectrum(np.array([10.0, 20.0]), np.array([1e-18, 2e-18]), "x")
    payload = json.loads(bud.spectra_to_json([spec]))
    assert payload["spectra"][0]["label"] == "x"
    assert payload["spectra"][0]["frequency_hz"] == [10.0, 20.0]
    assert payload["spectra"][0]["asd_m_per_sqrthz"] == [1e-18, 2e-18]
