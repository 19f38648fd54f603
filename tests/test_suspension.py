"""Suspension mechanics: mode frequencies, dilution, losses, requirements.

Reference values are frozen from an independent arbitrary-precision
recomputation (mpmath at 40 digits); several tests redo that computation
inline so the oracle travels with the test.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from pendq import (
    CONST,
    ConfigError,
    DomainError,
    Environment,
    Fiber,
    Material,
    ModeKind,
    PendulumModel,
    TestMass,
)
from pendq import suspension as susp
from pendq.config import load_config

mp.mp.dps = 40

CONFIG = load_config()
MODEL = CONFIG.model
FIBER = CONFIG.model.fiber
MASS = CONFIG.model.test_mass
ENV = CONFIG.model.env

F_M_HZ = 2.228925061062094
DILUTION = 13936.642515297543
Q_IDEAL = 167239710.1835705       # dilution * measured material Q 1.2e4
F_VIOLIN_HZ = (1993.21008870387, 3986.42017740774)
VIOLIN_MEFF = (2.7988734550163605, 11.195493820065442)
F_PITCH_HZ = 11.475743777088837
PITCH_MEFF = 8.802500000000001e-06
F_YAW_HZ = 0.013992349434330564
Q_GAS_AT_2P2 = 112612025.25441054
EDGE_HZ = 396.02549560698026


def test_pendulum_frequency():
    w = susp.pendulum_frequency(MODEL)
    assert math.isclose(w / (2 * math.pi), F_M_HZ, rel_tol=1e-12)
    oracle = mp.sqrt(mp.mpf("9.80665") / mp.mpf("0.05")) / (2 * mp.pi)
    assert math.isclose(w / (2 * math.pi), float(oracle), rel_tol=1e-14)


def test_pendulum_frequency_depends_only_on_length():
    heavy = PendulumModel(
        fiber=FIBER,
        test_mass=TestMass(mass=1.0, disk_radius=0.1, thickness=0.01),
        env=ENV,
    )
    assert susp.pendulum_frequency(heavy) == susp.pendulum_frequency(MODEL)


def test_dilution_factor_high_precision():
    d = susp.dilution_factor(FIBER, MASS.mass)
    assert math.isclose(d, DILUTION, rel_tol=1e-12)
    oracle = (4 * mp.mpf("0.05") / mp.mpf("0.5e-6") ** 2) * mp.sqrt(
        mp.mpf("7e-6") * mp.mpf("9.80665") / (mp.mpf("72e9") * mp.pi)
    )
    assert math.isclose(d, float(oracle), rel_tol=1e-14)


def test_dilution_scaling_laws():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        length = 10 ** rng.uniform(-2, 0)
        radius = 10 ** rng.uniform(-7, -5)
        mass = 10 ** rng.uniform(-7, -3)
        fiber = Fiber(length=length, radius=radius)
        d0 = susp.dilution_factor(fiber, mass)
        d_r = susp.dilution_factor(Fiber(length=length, radius=2 * radius), mass)
        d_l = susp.dilution_factor(Fiber(length=2 * length, radius=radius), mass)
        d_m = susp.dilution_factor(fiber, 4 * mass)
        assert math.isclose(d_r, d0 / 4, rel_tol=1e-12)
        assert math.isclose(d_l, 2 * d0, rel_tol=1e-12)
        assert math.isclose(d_m, 2 * d0, rel_tol=1e-12)


def test_diluted_pendulum_q():
    q = susp.diluted_pendulum_q(FIBER, MASS.mass, 1.2e4)
    assert math.isclose(q, Q_IDEAL, rel_tol=1e-12)
    with pytest.raises(DomainError):
        susp.diluted_pendulum_q(FIBER, MASS.mass, 0.0)


# ---------------------------------------------------------------------------
# Violin, pitch, yaw
# ---------------------------------------------------------------------------

def test_violin_mode_frequencies():
    modes = susp.violin_modes(MODEL, 2)
    assert [m.order for m in modes] == [1, 2]
    assert all(m.kind is ModeKind.VIOLIN for m in modes)
    for mode, f_ref in zip(modes, F_VIOLIN_HZ):
        assert math.isclose(mode.frequency_hz, f_ref, rel_tol=1e-12)
    # ideal string: exact integer harmonics
    assert math.isclose(modes[1].frequency, 2 * modes[0].frequency, rel_tol=1e-15)
    mu = mp.mpf("2200") * mp.pi * mp.mpf("0.5e-6") ** 2
    oracle = (mp.pi / mp.mpf("0.05")) * mp.sqrt(
        mp.mpf("7e-6") * mp.mpf("9.80665") / mu
    ) / (2 * mp.pi)
    assert math.isclose(modes[0].frequency_hz, float(oracle), rel_tol=1e-14)


def test_violin_effective_masses():
    modes = susp.violin_modes(MODEL, 2)
    for mode, m_ref in zip(modes, VIOLIN_MEFF):
        assert math.isclose(mode.effective_mass, m_ref, rel_tol=1e-12)
    # m_n grows as n^2
    assert math.isclose(
        modes[1].effective_mass, 4 * modes[0].effective_mass, rel_tol=1e-12
    )


def test_violin_q_keeps_half_the_dilution():
    modes = susp.violin_modes(MODEL, 1)
    assert math.isclose(modes[0].quality_factor, 0.5 * Q_IDEAL, rel_tol=1e-12)


def test_violin_modes_validation():
    with pytest.raises(DomainError):
        susp.violin_modes(MODEL, 0)


def test_pitch_frequency():
    f = susp.pitch_frequency(MASS) / (2 * math.pi)
    assert math.isclose(f, F_PITCH_HZ, rel_tol=1e-12)
    b = mp.mpf("1.5e-3")
    oracle = mp.sqrt(
        mp.mpf("9.80665") * b
        / (mp.mpf("1.5e-3") ** 2 / 4 + mp.mpf("4.5e-4") ** 2 / 12 + b**2)
    ) / (2 * mp.pi)
    assert math.isclose(f, float(oracle), rel_tol=1e-14)


def test_yaw_frequency():
    f = susp.yaw_frequency(FIBER, MASS) / (2 * math.pi)
    assert math.isclose(f, F_YAW_HZ, rel_tol=1e-12)
    kappa_t = mp.pi * mp.mpf("31e9") * mp.mpf("0.5e-6") ** 4 / (2 * mp.mpf("0.05"))
    i_z = mp.mpf("7e-6") * mp.mpf("1.5e-3") ** 2 / 2
    oracle = mp.sqrt(kappa_t / i_z) / (2 * mp.pi)
    assert math.isclose(f, float(oracle), rel_tol=1e-14)


# ---------------------------------------------------------------------------
# Damping and loss channels
# ---------------------------------------------------------------------------

def test_structural_gamma_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        w_m = 10 ** rng.uniform(-1, 4)
        q = 10 ** rng.uniform(1, 9)
        w = 10 ** rng.uniform(-1, 5)
        gamma = susp.structural_gamma(w_m, q, w)
        assert math.isclose(gamma * q * w, w_m**2, rel_tol=1e-12)


def test_structural_gamma_array_and_errors():
    w = np.array([1.0, 10.0, 100.0])
    g = susp.structural_gamma(14.0, 2e6, w)
    assert isinstance(g, np.ndarray)
    np.testing.assert_allclose(g, 14.0**2 / (2e6 * w), rtol=1e-15)
    assert isinstance(susp.structural_gamma(14.0, 2e6, 100.0), float)
    with pytest.raises(DomainError):
        susp.structural_gamma(14.0, 2e6, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        susp.structural_gamma(0.0, 2e6, 1.0)


def test_surface_limited_q_scales_with_radius():
    assert math.isclose(susp.surface_limited_q(FIBER), 2e4, rel_tol=1e-15)
    thick = Fiber(length=0.05, radius=1.0e-6, material=FIBER.material)
    assert math.isclose(susp.surface_limited_q(thick), 4e4, rel_tol=1e-15)


def test_surface_limited_q_needs_anchor():
    bare = Material(
        name="bare",
        young_modulus=7e10,
        shear_modulus=3e10,
        density=2000.0,
        poisson_ratio=0.2,
        bulk_loss_angle=1e-5,
    )
    with pytest.raises(ConfigError):
        susp.surface_limited_q(Fiber(length=0.05, radius=1e-6, material=bare))


def test_thermoelastic_peak_and_shape():
    mat = FIBER.material
    tau = (
        mat.density * mat.specific_heat * FIBER.radius**2
        / (susp.ZENER_MODE_CONSTANT * mat.thermal_conductivity)
    )
    strength = (
        mat.young_modulus * mat.thermal_expansion**2 * ENV.temperature
        / (mat.density * mat.specific_heat)
    )
    peak = susp.thermoelastic_loss_angle(FIBER, ENV, 1.0 / tau)
    assert math.isclose(peak, strength / 2.0, rel_tol=1e-12)
    # rises linearly well below the peak, falls above
    lo = susp.thermoelastic_loss_angle(FIBER, ENV, 1e-3 / tau)
    assert math.isclose(lo, strength * 1e-3, rel_tol=1e-5)
    hi = susp.thermoelastic_loss_angle(FIBER, ENV, 1e3 / tau)
    assert hi < peak
    assert susp.thermoelastic_loss_angle(FIBER, ENV, 0.0) == 0.0
    arr = susp.thermoelastic_loss_angle(FIBER, ENV, np.array([1.0, 10.0]))
    assert arr.shape == (2,)
    with pytest.raises(DomainError):
        susp.thermoelastic_loss_angle(FIBER, ENV, -1.0)


def test_thermoelastic_needs_thermal_properties():
    bare = Material(
        name="bare",
        young_modulus=7e10,
        shear_modulus=3e10,
        density=2000.0,
        poisson_ratio=0.2,
        bulk_loss_angle=1e-5,
    )
    with pytest.raises(ConfigError):
        susp.thermoelastic_loss_angle(
            Fiber(length=0.05, radius=1e-6, material=bare), ENV, 1.0
        )


def test_material_loss_budget_sums_channels():
    budget = susp.material_loss_budget(FIBER, ENV, 2 * math.pi * F_M_HZ)
    names = [name for name, _ in budget.contributions]
    assert names == ["bulk", "surface", "thermoelastic"]
    assert math.isclose(
        budget.total_phi, sum(phi for _, phi in budget.contributions), rel_tol=1e-15
    )
    with pytest.raises(DomainError):
        susp.LossBudget.from_channels([("bad", -1e-6)])


def test_material_q_prefers_measured_value():
    assert susp.material_q(FIBER, ENV) == 1.2e4
    unmeasured = Material(
        name=FIBER.material.name,
        young_modulus=FIBER.material.young_modulus,
        shear_modulus=FIBER.material.shear_modulus,
        density=FIBER.material.density,
        poisson_ratio=FIBER.material.poisson_ratio,
        bulk_loss_angle=FIBER.material.bulk_loss_angle,
        surface_q_reference=FIBER.material.surface_q_reference,
        thermal_expansion=FIBER.material.thermal_expansion,
        specific_heat=FIBER.material.specific_heat,
        thermal_conductivity=FIBER.material.thermal_conductivity,
    )
    fiber = Fiber(length=0.05, radius=0.5e-6, material=unmeasured)
    q = susp.material_q(fiber, ENV)
    total = susp.material_loss_budget(fiber, ENV, 1.0).total_phi
    assert math.isclose(q, 1.0 / total, rel_tol=1e-15)
    # bulk 3.3e-5 plus surface 5e-5 dominate: Q lands near 1.2e4
    assert 1.0e4 < q < 1.3e4


def test_gas_damping():
    assert susp.gas_damping_gamma(MASS, Environment(pressure=0.0)) == 0.0
    assert susp.gas_limited_q(MASS, Environment(pressure=0.0), 14.0) == math.inf
    q = susp.gas_limited_q(MASS, ENV, 2 * math.pi * 2.2)
    assert math.isclose(q, Q_GAS_AT_2P2, rel_tol=1e-12)
    # free-molecular drag is linear in pressure
    g1 = susp.gas_damping_gamma(MASS, Environment(pressure=1e-5))
    g2 = susp.gas_damping_gamma(MASS, Environment(pressure=3e-5))
    assert math.isclose(g2, 3 * g1, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Requirement checks
# ---------------------------------------------------------------------------

def test_qf_requirement_margin():
    report = susp.qf_requirement(100.0, 1e12, 300.0)
    assert math.isclose(report.margin, report.lhs / report.rhs, rel_tol=1e-15)
    assert report.passed == (report.lhs > report.rhs)
    # margin scales as 1/T
    r2 = susp.qf_requirement(100.0, 1e12, 600.0)
    assert math.isclose(r2.margin, report.margin / 2, rel_tol=1e-12)
    d = report.to_dict()
    assert set(d) == {"lhs_rad_per_s", "rhs_rad_per_s", "passed", "margin"}


def test_measurement_band_edge():
    mode = susp.pendulum_mode(MODEL)
    edge = susp.measurement_band_edge(mode.frequency, mode.quality_factor, 300.0)
    assert math.isclose(edge, EDGE_HZ, rel_tol=1e-12)
    oracle = (
        4 * mp.mpf("1.380649e-23") * 300 * (2 * mp.pi * mp.mpf(F_M_HZ)) ** 2
        / (mp.mpf("1.054571817e-34") * mp.mpf("2e6"))
    ) ** (mp.mpf(1) / 3) / (2 * mp.pi)
    assert math.isclose(edge, float(oracle), rel_tol=1e-13)
    # edge scales as T^(1/3)
    edge8 = susp.measurement_band_edge(mode.frequency, mode.quality_factor, 2400.0)
    assert math.isclose(edge8, 2 * edge, rel_tol=1e-12)


def test_measurement_band_edge_spectrum_agrees():
    mode = susp.pendulum_mode(MODEL)
    grid = np.geomspace(10.0, 1e4, 2000)
    numeric = susp.measurement_band_edge_spectrum(
        mode.frequency, mode.quality_factor, 300.0, grid
    )
    assert math.isclose(numeric, EDGE_HZ, rel_tol=1e-9)
    # grid entirely inside the band: returns its start
    high = np.geomspace(1e3, 1e4, 50)
    assert susp.measurement_band_edge_spectrum(
        mode.frequency, mode.quality_factor, 300.0, high
    ) == pytest.approx(1e3)
    with pytest.raises(DomainError):
        susp.measurement_band_edge_spectrum(
            mode.frequency, mode.quality_factor, 300.0, np.geomspace(0.1, 1.0, 50)
        )
    # the threshold validates its temperature, as the closed form does
    with pytest.raises(DomainError, match="temperature must be > 0"):
        susp.measurement_band_edge_spectrum(
            mode.frequency, mode.quality_factor, -300.0, np.geomspace(0.1, 1e4, 2000)
        )


# ---------------------------------------------------------------------------
# Mode assembly
# ---------------------------------------------------------------------------

def test_pendulum_mode_uses_measured_q():
    mode = susp.pendulum_mode(MODEL)
    assert mode.kind is ModeKind.PENDULUM
    assert mode.quality_factor == 2e6
    assert mode.effective_mass == MASS.mass
    ideal = PendulumModel(fiber=FIBER, test_mass=MASS, env=ENV)
    assert math.isclose(
        susp.pendulum_mode(ideal).quality_factor, Q_IDEAL, rel_tol=1e-12
    )


def test_pitch_mode_lever_arm_mass():
    mode = susp.pitch_mode(MODEL)
    assert mode.kind is ModeKind.PITCH
    assert math.isclose(mode.effective_mass, PITCH_MEFF, rel_tol=1e-12)
    assert math.isclose(
        mode.effective_mass,
        MASS.pivot_moment_of_inertia / MASS.attachment_offset**2,
        rel_tol=1e-15,
    )


def test_suspension_modes_composition():
    modes = susp.suspension_modes(MODEL)
    kinds = [m.kind for m in modes]
    assert kinds == [ModeKind.PENDULUM, ModeKind.PITCH, ModeKind.VIOLIN, ModeKind.VIOLIN]
    assert len(susp.suspension_modes(dataclasses.replace(MODEL, violin_modes=0))) == 2


def test_every_mode_takes_the_one_ideal_q():
    # 4.2 K, material Q from the loss channels, no measured pendulum Q
    # (the config cannot unset it, so the model is edited directly)
    cold = load_config(None, [
        "environment.temperature=4.2",
        "material.measured_q=null",
        "suspension.violin_modes=3",
    ]).model
    model = dataclasses.replace(cold, measured_pendulum_q=None)
    q_ideal = susp.ideal_pendulum_q(model)
    assert q_ideal == susp.diluted_pendulum_q(
        model.fiber, model.test_mass.mass, susp.material_q(model.fiber, model.env)
    )
    # the material Q differs from the 300 K one, so the model's env is the one used
    assert susp.material_q(model.fiber, model.env) != susp.material_q(model.fiber, ENV)
    pendulum = susp.pendulum_mode(model)
    pitch = susp.pitch_mode(model)
    violins = susp.violin_modes(model, model.violin_modes)
    assert pendulum.quality_factor == q_ideal
    assert pitch.quality_factor == susp.DEFAULT_MODE_DILUTION_FRACTION * q_ideal
    assert len(violins) == 3
    for mode in violins:
        assert mode.quality_factor == susp.DEFAULT_MODE_DILUTION_FRACTION * q_ideal
    assert susp.suspension_modes(model) == [pendulum, pitch, *violins]


def test_mode_validation():
    with pytest.raises(DomainError):
        susp.Mode(ModeKind.VIOLIN, 100.0, 1e6, 1.0, order=0)
    with pytest.raises(DomainError):
        susp.Mode(ModeKind.PENDULUM, -1.0, 1e6, 1.0)
    mode = susp.Mode(ModeKind.PENDULUM, 2 * math.pi, 1e6, 1.0)
    assert math.isclose(mode.frequency_hz, 1.0, rel_tol=1e-15)
    assert math.isclose(mode.loss_angle, 1e-6, rel_tol=1e-15)


def test_equipartition_of_structural_fdt_spectrum():
    """Integrated displacement PSD must return k_B T / (m w_n^2).

    Structural damping has a 1/omega low-frequency tail, so the numeric
    integral over [w_n/30, 30 w_n] carries an O(phi ln) excess; for
    Q >= 80 that stays under a few percent.
    """
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = 10 ** rng.uniform(-7, -3)
        w_n = 2 * math.pi * 10 ** rng.uniform(0, 3)
        q = rng.uniform(80, 500)
        phi = 1.0 / q

        def s_x(w):
            return (
                (4 * CONST.k_B * 300.0 / w)
                * (w_n**2 * phi)
                / (m * ((w_n**2 - w**2) ** 2 + w_n**4 * phi**2))
            )

        total = 0.0
        for a, b in [(w_n / 30, 0.9 * w_n), (0.9 * w_n, 1.1 * w_n), (1.1 * w_n, 30 * w_n)]:
            part, _ = integrate.quad(
                s_x, a, b, limit=400, points=[w_n] if a < w_n < b else None
            )
            total += part
        variance = total / (2 * math.pi)
        assert variance == pytest.approx(CONST.k_B * 300.0 / (m * w_n**2), rel=0.05)
