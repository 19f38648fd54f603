"""Cavity readout, optical spring, and the requirement report."""

import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from pendq import DomainError
from pendq import budget as bud
from pendq import cavity as cav
from pendq.config import load_config

mp.mp.dps = 40

CONFIG = load_config()
MODEL = CONFIG.model
CAVITY = CONFIG.cavity

KAPPA = 1883651.5673088531
P_CIRC_RESONANT = 318.3098861837907   # 0.1 W in, finesse 5000
K_OPT = 349.8852106884106
F_OPT_HZ = 1125.2108324014296
F_EFF_HZ = 1125.2130400330623
SPRING_RATIO = 254845.44430012192
Q_EFF = 509692888600.2438
RIN_02MW = 4.3208337053320403e-08
S_F = 3.3675490918283786e-32
EQ1_LHS = 3603488987043081.5
EQ1_MARGIN = 91.74762324591579
EDGE_HZ = 396.02549560698026


def test_cavity_validation():
    with pytest.raises(DomainError):
        cav.Cavity(round_trip_length=0.1, finesse=1.0, wavelength=1e-6)
    with pytest.raises(DomainError):
        cav.Cavity(round_trip_length=0.0, finesse=100.0, wavelength=1e-6)
    with pytest.raises(DomainError):
        cav.Cavity(
            round_trip_length=0.1, finesse=100.0, wavelength=1e-6, probe_power=-1.0
        )
    with pytest.raises(DomainError):
        cav.Cavity(
            round_trip_length=0.1,
            finesse=100.0,
            wavelength=1e-6,
            coupling_efficiency=1.5,
        )
    assert CAVITY.cavity_length == 0.05
    assert math.isclose(
        CAVITY.laser_omega, 2 * math.pi * 2.99792458e8 / 1.064e-6, rel_tol=1e-15
    )


def test_kappa_value_and_scaling():
    kappa = cav.cavity_kappa(CAVITY)
    assert math.isclose(kappa, KAPPA, rel_tol=1e-12)
    # half-width of the power resonance: FSR/F is the FWHM in Hz
    oracle = mp.pi * mp.mpf("2.99792458e8") / (mp.mpf("0.1") * 5000)
    assert math.isclose(kappa, float(oracle), rel_tol=1e-14)
    assert math.isclose(kappa / (2 * math.pi), 299792.458, rel_tol=1e-12)
    double_f = cav.Cavity(round_trip_length=0.1, finesse=10000.0, wavelength=1.064e-6)
    assert math.isclose(cav.cavity_kappa(double_f), kappa / 2, rel_tol=1e-15)
    double_l = cav.Cavity(round_trip_length=0.2, finesse=5000.0, wavelength=1.064e-6)
    assert math.isclose(cav.cavity_kappa(double_l), kappa / 2, rel_tol=1e-15)


def test_circulating_power():
    assert math.isclose(
        cav.circulating_power(CAVITY, 0.1, 0.0), P_CIRC_RESONANT, rel_tol=1e-12
    )
    rng = np.random.default_rng(5)
    for _ in range(200):
        delta = rng.uniform(-20, 20)
        assert cav.circulating_power(CAVITY, 0.1, delta) == cav.circulating_power(
            CAVITY, 0.1, -delta
        )
    # Lorentzian falloff and linearity in input power
    assert math.isclose(
        cav.circulating_power(CAVITY, 0.1, 1.0), P_CIRC_RESONANT / 2, rel_tol=1e-12
    )
    assert math.isclose(
        cav.circulating_power(CAVITY, 0.2, 0.0), 2 * P_CIRC_RESONANT, rel_tol=1e-12
    )
    lossy = cav.Cavity(
        round_trip_length=0.1,
        finesse=5000.0,
        wavelength=1.064e-6,
        coupling_efficiency=0.5,
    )
    assert math.isclose(
        cav.circulating_power(lossy, 0.1, 0.0), P_CIRC_RESONANT / 2, rel_tol=1e-12
    )
    with pytest.raises(DomainError):
        cav.circulating_power(CAVITY, -0.1, 0.0)


def test_optical_rigidity_preset_value():
    assert math.isclose(cav.optical_rigidity(CAVITY), K_OPT, rel_tol=1e-12)


def test_optical_rigidity_zero_cases():
    no_trap = cav.Cavity(
        round_trip_length=0.1, finesse=5000.0, wavelength=1.064e-6, trap_power=0.0
    )
    assert cav.optical_rigidity(no_trap) == 0.0
    resonant_trap = cav.Cavity(
        round_trip_length=0.1,
        finesse=5000.0,
        wavelength=1.064e-6,
        trap_power=0.1,
        trap_detuning_in_kappa=0.0,
    )
    with pytest.warns(UserWarning, match="no optical spring"):
        assert cav.optical_rigidity(resonant_trap) == 0.0


def _cavity_at(delta, trap_power=0.1):
    return cav.Cavity(
        round_trip_length=0.1,
        finesse=5000.0,
        wavelength=1.064e-6,
        trap_power=trap_power,
        trap_detuning_in_kappa=delta,
    )


def test_optical_rigidity_odd_in_detuning():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        delta = rng.uniform(0.01, 30.0)
        plus = cav.optical_rigidity(_cavity_at(delta))
        minus = cav.optical_rigidity(_cavity_at(-delta))
        assert plus > 0.0
        assert math.isclose(minus, -plus, rel_tol=1e-15)


def test_optical_rigidity_maximized_at_sqrt3_detuning():
    best = cav.optical_rigidity(_cavity_at(1.0 / math.sqrt(3.0)))
    rng = np.random.default_rng(17)
    for _ in range(300):
        assert cav.optical_rigidity(_cavity_at(rng.uniform(0.01, 10.0))) <= best


def test_optical_rigidity_linear_in_power():
    k1 = cav.optical_rigidity(_cavity_at(6.0, trap_power=0.05))
    k2 = cav.optical_rigidity(_cavity_at(6.0, trap_power=0.10))
    assert math.isclose(k2, 2 * k1, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Effective oscillator
# ---------------------------------------------------------------------------

def test_stiffened_oscillator_identities():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        mass = 10 ** rng.uniform(-8, -2)
        w_m = 2 * math.pi * 10 ** rng.uniform(-1, 2)
        q_m = 10 ** rng.uniform(2, 8)
        k_opt = 10 ** rng.uniform(-8, 4)
        osc = cav.stiffened_oscillator(mass, w_m, q_m, k_opt)
        assert math.isclose(
            osc.omega_eff**2, osc.omega_opt**2 + osc.omega_m**2, rel_tol=1e-12
        )
        # Q_eff/Q_m = (w_eff/w_m)^2, asserted in cross-multiplied form
        assert math.isclose(
            osc.q_eff * osc.omega_m**2, osc.q_m * osc.omega_eff**2, rel_tol=1e-12
        )
        assert osc.anti_damped


def test_stiffened_oscillator_identity_case():
    osc = cav.stiffened_oscillator(7e-6, 14.0, 2e6, 0.0)
    assert osc.omega_eff == 14.0
    assert osc.q_eff == 2e6
    assert osc.spring_ratio == 0.0
    assert not osc.anti_damped


def test_softening_spring():
    k_g = 1e-3 * 10.0**2
    osc = cav.stiffened_oscillator(1e-3, 10.0, 100.0, -0.5 * k_g)
    assert math.isclose(osc.omega_eff, math.sqrt(50.0), rel_tol=1e-12)
    assert osc.omega_eff < osc.omega_m
    assert not osc.anti_damped
    with pytest.raises(DomainError):
        cav.stiffened_oscillator(1e-3, 10.0, 100.0, -k_g)
    with pytest.raises(DomainError):
        cav.stiffened_oscillator(1e-3, 10.0, 100.0, -2 * k_g)
    # a directly built oscillator is checked the same way
    with pytest.raises(DomainError, match="gravitational rigidity"):
        cav.EffectiveOscillator(1e-3, 10.0, 100.0, -k_g)
    with pytest.raises(DomainError, match="mass"):
        cav.EffectiveOscillator(0.0, 10.0, 100.0, 1.0)


def test_replaced_spring_rederives_the_oscillator():
    osc = cav.effective_oscillator(MODEL, CAVITY)
    for k_opt in (0.0, -0.5 * osc.k_g, 1e-3 * osc.k_opt, 10 * osc.k_opt):
        # == compares every field, the derived ones too
        fresh = cav.stiffened_oscillator(osc.mass, osc.omega_m, osc.q_m, k_opt)
        assert replace(osc, k_opt=k_opt) == fresh


def test_effective_oscillator_preset():
    osc = cav.effective_oscillator(MODEL, CAVITY)
    assert math.isclose(osc.omega_opt / (2 * math.pi), F_OPT_HZ, rel_tol=1e-12)
    assert math.isclose(osc.omega_eff_hz, F_EFF_HZ, rel_tol=1e-12)
    assert math.isclose(osc.spring_ratio, SPRING_RATIO, rel_tol=1e-12)
    assert math.isclose(osc.q_eff, Q_EFF, rel_tol=1e-12)
    assert osc.anti_damped
    d = osc.to_dict()
    assert d["f_eff_hz"] == osc.omega_eff_hz
    assert d["anti_damped"] is True


def test_frequency_drift_suppression_derivative():
    # d(w_eff)/d(w_m) = w_m/w_eff; a stiff spring makes w_eff insensitive
    # to pendulum frequency drift
    rng = np.random.default_rng(23)
    for _ in range(30):
        mass = 10 ** rng.uniform(-7, -3)
        w_m = 2 * math.pi * 10 ** rng.uniform(-0.5, 1.5)
        k_opt = 10 ** rng.uniform(-2, 4) * mass * w_m**2
        # step sized against cancellation: w_eff moves by ~h w_m/w_eff
        h = w_m * 1e-4
        up = cav.stiffened_oscillator(mass, w_m + h, 1e6, k_opt).omega_eff
        down = cav.stiffened_oscillator(mass, w_m - h, 1e6, k_opt).omega_eff
        numeric = (up - down) / (2 * h)
        osc = cav.stiffened_oscillator(mass, w_m, 1e6, k_opt)
        assert math.isclose(numeric, osc.omega_m / osc.omega_eff, rel_tol=1e-6)
    big = cav.stiffened_oscillator(7e-6, 14.0, 2e6, 1e4 * 7e-6 * 14.0**2)
    assert big.omega_m / big.omega_eff < 1e-3 / math.sqrt(1e-2)  # ~1/sqrt(ratio)


# ---------------------------------------------------------------------------
# Shot noise and back-action
# ---------------------------------------------------------------------------

def test_shot_noise_rin():
    rin = cav.shot_noise_rin(2e-4, 1.064e-6)
    assert math.isclose(rin, RIN_02MW, rel_tol=1e-12)
    oracle = mp.sqrt(
        2
        * mp.mpf("1.054571817e-34")
        * (2 * mp.pi * mp.mpf("2.99792458e8") / mp.mpf("1.064e-6"))
        / mp.mpf("2e-4")
    )
    assert math.isclose(rin, float(oracle), rel_tol=1e-14)
    # quadrupled power halves the RIN; halved wavelength raises it sqrt(2)
    assert math.isclose(cav.shot_noise_rin(8e-4, 1.064e-6), rin / 2, rel_tol=1e-12)
    assert math.isclose(
        cav.shot_noise_rin(2e-4, 0.532e-6), rin * math.sqrt(2), rel_tol=1e-12
    )
    with pytest.raises(DomainError):
        cav.shot_noise_rin(0.0, 1.064e-6)


def test_radiation_pressure_force_psd():
    s_f = cav.radiation_pressure_force_psd(CAVITY)
    assert math.isclose(s_f, S_F, rel_tol=1e-12)
    doubled = cav.Cavity(
        round_trip_length=0.1,
        finesse=10000.0,
        wavelength=1.064e-6,
        probe_power=2e-4,
    )
    assert math.isclose(
        cav.radiation_pressure_force_psd(doubled), 4 * s_f, rel_tol=1e-12
    )
    dark = cav.Cavity(round_trip_length=0.1, finesse=5000.0, wavelength=1.064e-6)
    with pytest.raises(DomainError):
        cav.radiation_pressure_force_psd(dark)


# ---------------------------------------------------------------------------
# Requirement report
# ---------------------------------------------------------------------------

def test_effective_requirements_preset():
    band = bud.thermal_sub_sql_band(MODEL, CONFIG.grid())
    report = cav.effective_requirements(MODEL, CAVITY, band)
    assert report.passed
    assert math.isclose(report.eq1.lhs, EQ1_LHS, rel_tol=1e-12)
    assert math.isclose(report.eq1.margin, EQ1_MARGIN, rel_tol=1e-12)
    assert math.isclose(report.eq2_edge_hz, EDGE_HZ, rel_tol=1e-12)
    assert len(report.sub_sql_band_hz) == 3
    # overlap starts where the measurement-rate band begins
    assert math.isclose(report.band_overlap_hz[0][0], EDGE_HZ, rel_tol=1e-12)
    assert report.band_overlap_hz[0][1] == report.sub_sql_band_hz[0][1]


def test_effective_requirements_margin_halves_with_temperature():
    hot = replace(MODEL, env=replace(MODEL.env, temperature=600.0))
    r300 = cav.effective_requirements(MODEL, CAVITY, sub_sql=[])
    r600 = cav.effective_requirements(hot, CAVITY, sub_sql=[])
    assert math.isclose(r600.eq1.margin, r300.eq1.margin / 2, rel_tol=1e-9)


def test_effective_requirements_respects_injected_band():
    report = cav.effective_requirements(MODEL, CAVITY, sub_sql=[(500.0, 800.0)])
    assert report.sub_sql_band_hz == ((500.0, 800.0),)
    assert report.band_overlap_hz == ((500.0, 800.0),)
    none_left = cav.effective_requirements(MODEL, CAVITY, sub_sql=[(10.0, 20.0)])
    assert none_left.band_overlap_hz == ()


def test_effective_requirements_fails_without_trap():
    bare = cav.Cavity(
        round_trip_length=0.1,
        finesse=5000.0,
        wavelength=1.064e-6,
        probe_power=2e-4,
        trap_power=0.0,
    )
    report = cav.effective_requirements(MODEL, bare, sub_sql=[(400.0, 2000.0)])
    # a 2.2 Hz pendulum sits far below the measurement-rate band edge
    assert not report.passed
    assert report.effective.omega_eff_hz < report.eq2_edge_hz


def test_report_rate_band_includes_its_edge():
    report = cav.effective_requirements(MODEL, CAVITY, sub_sql=[])
    at_edge = replace(report, eq2_edge_hz=report.effective.omega_eff_hz)
    above = replace(at_edge, eq2_edge_hz=math.nextafter(at_edge.eq2_edge_hz, math.inf))
    assert at_edge.in_band and not above.in_band
    failing_eq1 = replace(at_edge, eq1=replace(report.eq1, lhs=report.eq1.rhs))
    for r in (report, at_edge, above, failing_eq1):
        assert r.passed == (r.eq1.passed and r.in_band)
        assert r.to_dict()["passed"] is r.passed
    assert at_edge.passed and not above.passed and not failing_eq1.passed


def test_replaced_edge_rederives_the_overlap():
    report = cav.effective_requirements(MODEL, CAVITY, sub_sql=[(300.0, 900.0), (1e3, 2e3)])
    for edge_hz, overlap in (
        (100.0, ((300.0, 900.0), (1e3, 2e3))),
        (500.0, ((500.0, 900.0), (1e3, 2e3))),
        (900.0, ((1e3, 2e3),)),
        (1500.0, ((1500.0, 2e3),)),
        (2e3, ()),
    ):
        assert replace(report, eq2_edge_hz=edge_hz).band_overlap_hz == overlap


def test_report_serializes_to_json():
    report = cav.effective_requirements(MODEL, CAVITY, sub_sql=[(500.0, 800.0)])
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {
        "effective",
        "eq1",
        "eq2_edge_hz",
        "sub_sql_band_hz",
        "band_overlap_hz",
        "passed",
    }
    assert payload["passed"] is True
    assert payload["sub_sql_band_hz"] == [[500.0, 800.0]]
