"""Acceptance gate: one test per headline behavior of the package.

Each test pins a quantitative claim about the reference experiment (or a
scaled stand-in, for the ring-down statistics) with an explicit
tolerance.  The conftest hook prints a PASS/FAIL line per test at the
end of the run.
"""

import dataclasses
import math

import numpy as np

from pendq import budget as bd
from pendq import cavity as cav
from pendq import ringdown as rd
from pendq import suspension as susp
from pendq.config import load_config

CONFIG = load_config()
MODEL = CONFIG.model
FIBER = CONFIG.model.fiber
MASS = CONFIG.model.test_mass
ENV = CONFIG.model.env
CAVITY = CONFIG.cavity

TWO_PI = 2.0 * math.pi


def test_01_pendulum_frequency_matches_measured():
    f_m = susp.pendulum_frequency(MODEL) / TWO_PI
    assert abs(f_m / 2.2 - 1.0) <= 0.05


def test_02_diluted_q_and_headroom():
    q_ideal = susp.diluted_pendulum_q(FIBER, MASS.mass, 1.2e4)
    assert 1.6e8 <= q_ideal <= 1.8e8
    ratio = q_ideal / 2.0e6
    assert 50.0 <= ratio <= 150.0


def test_03_measurement_rate_band_edge():
    omega_m = susp.pendulum_frequency(MODEL)
    edge = susp.measurement_band_edge(omega_m, 2.0e6, 300.0)
    assert abs(edge / 396.0 - 1.0) <= 0.05
    grid = bd.log_grid(10.0, 1.0e4, 2000)
    numeric = susp.measurement_band_edge_spectrum(omega_m, 2.0e6, 300.0, grid)
    assert abs(numeric / edge - 1.0) <= 0.01


def test_04_sub_sql_thermal_band():
    grid = CONFIG.grid()
    modes = susp.suspension_modes(MODEL)
    components = [
        bd.suspension_thermal_asd(modes, ENV.temperature, grid),
        bd.mirror_thermal_asd(
            MASS,
            CONFIG.model.fiber.material.young_modulus,
            CONFIG.model.fiber.material.poisson_ratio,
            ENV.temperature,
            grid,
        ),
    ]
    budget = bd.total_budget(components, MASS.mass, grid)
    bands = bd.sub_sql_band(budget)
    containing_1khz = [b for b in bands if b[0] <= 1000.0 <= b[1]]
    assert len(containing_1khz) == 1
    lo, hi = containing_1khz[0]
    assert 250.0 <= lo <= 450.0
    assert 1500.0 <= hi <= 2100.0


def test_05_effective_qf_product():
    q_m = 2.0e6
    omega_m = TWO_PI * 2.2
    omega_eff_target = TWO_PI * 280.0
    mass = MASS.mass
    k_opt = mass * (omega_eff_target**2 - omega_m**2)
    osc = cav.stiffened_oscillator(mass, omega_m, q_m, k_opt)
    qf = osc.q_eff * osc.omega_eff / TWO_PI
    assert abs(qf / 9.2e12 - 1.0) <= 0.03
    report = susp.qf_requirement(osc.omega_eff, osc.q_eff, 300.0)
    assert report.passed
    assert report.margin > 1.0


def test_06_shot_noise_rin():
    rin = cav.shot_noise_rin(0.2e-3, 1.064e-6)
    assert abs(rin / 4.3e-8 - 1.0) <= 0.15


def test_07_optical_spring():
    # 100 mW trap detuned 6 linewidths on the reference cavity
    f_opt = math.sqrt(cav.optical_rigidity(CAVITY) / MASS.mass) / TWO_PI
    assert 750.0 / 2.0 <= f_opt <= 750.0 * 2.0
    # rigidity ratio at the 280 Hz effective-oscillator operating point
    omega_m = susp.pendulum_frequency(MODEL)
    k_opt = MASS.mass * ((TWO_PI * 280.0) ** 2 - omega_m**2)
    osc = cav.stiffened_oscillator(MASS.mass, omega_m, 2.0e6, k_opt)
    assert 1.0e4 / 3.0 <= osc.spring_ratio <= 1.0e4 * 3.0


def test_08_gas_damping_limit():
    q_gas = susp.gas_limited_q(MASS, ENV, TWO_PI * 2.2)
    assert 1.0e8 <= q_gas <= 1.0e10


def test_09_ringdown_statistics():
    f0, q_true, fs, dur, bw, binsec = 2.2, 2000.0, 50.0, 240.0, 0.5, 20.0

    # noiseless round trip
    clean = rd.measure_q(rd.synthesize_ringdown(f0, q_true, fs, dur), f0, bw, binsec)
    assert abs(clean.q / q_true - 1.0) <= 1e-3

    # noise level tuned to ~4% reported relative error; 2 sigma coverage
    hits, rel_errs = 0, []
    for seed in range(100):
        trace = rd.synthesize_ringdown(f0, q_true, fs, dur, noise_rms=0.4, seed=seed)
        fit = rd.measure_q(trace, f0, bw, binsec)
        rel_errs.append(fit.q_rel_error)
        if abs(fit.q - q_true) <= 2.0 * fit.q_rel_error * fit.q:
            hits += 1
    assert 0.02 <= float(np.mean(rel_errs)) <= 0.08
    assert hits >= 90

    # slow microhertz-scale frequency drift must not bias the Q estimate
    drift_bias = []
    for seed in range(5):
        trace = rd.synthesize_ringdown(f0, q_true, fs, dur, drift_uhz=5.0, seed=seed)
        fit = rd.measure_q(trace, f0, bw, binsec)
        drift_bias.append(fit.q / q_true - 1.0)
    assert abs(float(np.mean(drift_bias))) < 0.01


def test_10_structural_damping_slope():
    # below the first violin resonance the thermal tail falls as 1/omega^2.5,
    # so doubling the frequency divides the ASD by 2^2.5
    modes = susp.suspension_modes(dataclasses.replace(MODEL, violin_modes=0))  # pendulum + pitch
    omega_m = susp.pendulum_frequency(MODEL)
    f_violin1 = susp.violin_modes(FIBER, MASS.mass, 1)[0].frequency_hz
    f = np.geomspace(50.0 * omega_m / TWO_PI, 0.5 * f_violin1, 400)
    lower = bd.suspension_thermal_asd(modes, ENV.temperature, f)
    upper = bd.suspension_thermal_asd(modes, ENV.temperature, 2.0 * f)
    ratio = upper.asd / lower.asd
    assert np.max(np.abs(ratio / 2.0**-2.5 - 1.0)) <= 0.01


def test_11_randomized_invariants():
    rng = np.random.default_rng(2026)

    # quadrature sum: the budget total is the RSS of its components
    for _ in range(1000):
        grid = bd.log_grid(10 ** rng.uniform(0, 1), 10 ** rng.uniform(2, 3), 16)
        spectra = [
            bd.NoiseSpectrum(
                frequencies=grid,
                asd=10 ** rng.uniform(-20, -16) * grid ** rng.uniform(-2, 0),
                label=f"c{i}",
            )
            for i in range(rng.integers(2, 5))
        ]
        budget = bd.total_budget(spectra, 1e-6, grid)
        rss = np.sqrt(sum(s.asd**2 for s in spectra))
        assert np.allclose(budget.total.asd, rss, rtol=1e-12, atol=0.0)

    # optical spring frequency composition
    for _ in range(1000):
        mass = 10 ** rng.uniform(-8, -2)
        w_m = TWO_PI * 10 ** rng.uniform(-1, 2)
        q_m = 10 ** rng.uniform(2, 8)
        k_opt = 10 ** rng.uniform(-8, 4)
        osc = cav.stiffened_oscillator(mass, w_m, q_m, k_opt)
        assert math.isclose(
            osc.omega_eff**2, osc.omega_opt**2 + osc.omega_m**2, rel_tol=1e-12
        )
        assert math.isclose(
            osc.q_eff * osc.omega_m**2, osc.q_m * osc.omega_eff**2, rel_tol=1e-12
        )

    # ring-down fits report q = pi f0 tau and recover exact decays
    for _ in range(1000):
        tau = 10 ** rng.uniform(1, 3)
        f0 = 10 ** rng.uniform(-0.5, 1.5)
        t = np.linspace(0.3 * tau, 2.0 * tau, 8)
        means = rng.uniform(0.5, 5.0) * np.exp(-t / tau)
        binned = rd.BinnedEnvelope(
            bin_centers=t,
            means=means,
            standard_errors=1e-4 * means,
            counts=np.full(8, 6),
        )
        fit = rd.fit_exponential(binned, f0)
        assert math.isclose(fit.tau, tau, rel_tol=1e-12)
        assert math.isclose(fit.q, math.pi * f0 * fit.tau, rel_tol=1e-12)

    # dilution scaling laws: D ~ l / r^2 * sqrt(m)
    material = FIBER.material
    for _ in range(1000):
        length = 10 ** rng.uniform(-2, 0)
        radius = 10 ** rng.uniform(-7, -5)
        mass = 10 ** rng.uniform(-7, -4)
        base = susp.dilution_factor(
            susp.Fiber(length=length, radius=radius, material=material), mass
        )
        thick = susp.dilution_factor(
            susp.Fiber(length=length, radius=2 * radius, material=material), mass
        )
        long = susp.dilution_factor(
            susp.Fiber(length=2 * length, radius=radius, material=material), mass
        )
        heavy = susp.dilution_factor(
            susp.Fiber(length=length, radius=radius, material=material), 4 * mass
        )
        assert math.isclose(thick, base / 4.0, rel_tol=1e-12)
        assert math.isclose(long, 2.0 * base, rel_tol=1e-12)
        assert math.isclose(heavy, 2.0 * base, rel_tol=1e-12)
