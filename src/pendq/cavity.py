"""Optical readout and optical-spring model.

Cavity rates, Lorentzian power buildup, adiabatic optical rigidity, the
resulting stiffened effective oscillator, probe shot noise, and the
oscillator-level requirement report that combines the Qf-product check
with the measurement-rate band.

Conventions fixed here:
  kappa   amplitude decay rate = half-width of the power resonance,
          kappa = pi c / (L_rt F) in rad/s
  delta   detuning in units of kappa (Delta/kappa); positive delta gives
          a positive (restoring) optical spring
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    CONST,
    DomainError,
    _require_nonnegative,
    _require_positive,
)
from .suspension import (
    PendulumModel,
    QfReport,
    measurement_band_edge,
    pendulum_mode,
    qf_requirement,
)


@dataclass(frozen=True)
class Cavity:
    """Fabry-Perot readout cavity and its two drive beams.

    round_trip_length is the full round trip (2x the mirror spacing);
    trap_detuning_in_kappa is the trap beam's detuning Delta/kappa.
    """

    round_trip_length: float          # L_rt [m]
    finesse: float
    wavelength: float                 # [m]
    probe_power: float = 0.0          # [W]
    trap_power: float = 0.0           # [W]
    trap_detuning_in_kappa: float = 0.0
    coupling_efficiency: float = 1.0  # eta in (0, 1]

    def __post_init__(self):
        _require_positive("round_trip_length", self.round_trip_length)
        if not self.finesse > 1.0:
            raise DomainError(f"finesse must be > 1, got {self.finesse}")
        _require_positive("wavelength", self.wavelength)
        _require_nonnegative("probe_power", self.probe_power)
        _require_nonnegative("trap_power", self.trap_power)
        if not 0.0 < self.coupling_efficiency <= 1.0:
            raise DomainError(
                f"coupling_efficiency must be in (0, 1], got {self.coupling_efficiency}"
            )

    @property
    def cavity_length(self) -> float:
        """Mirror spacing L_rt / 2 [m]."""
        return self.round_trip_length / 2.0

    @property
    def laser_omega(self) -> float:
        """Laser angular frequency 2 pi c / lambda [rad/s]."""
        return 2.0 * math.pi * CONST.c / self.wavelength


def cavity_kappa(cavity: Cavity) -> float:
    """Amplitude decay rate kappa = pi c / (L_rt F) [rad/s].

    Equals the half-width at half-maximum of the power resonance: the
    free spectral range is 2 pi c / L_rt, the power FWHM is FSR/F, and
    the amplitude field decays at half the power decay rate.
    """
    return math.pi * CONST.c / (cavity.round_trip_length * cavity.finesse)


def circulating_power(cavity: Cavity, power_in: float, delta: float) -> float:
    """Lorentzian intracavity power buildup [W].

    P_circ = eta * (2F/pi) * P_in / (1 + delta^2), with delta the
    detuning in units of kappa.  Even in delta.
    """
    _require_nonnegative("power_in", power_in)
    return (
        cavity.coupling_efficiency
        * (2.0 * cavity.finesse / math.pi)
        * power_in
        / (1.0 + delta**2)
    )


def optical_rigidity(cavity: Cavity) -> float:
    """Adiabatic optical-spring constant of the detuned trap beam [N/m].

    k_opt = (2/c) * (omega_L / L_cav) * P_max * 2 delta / (kappa (1 + delta^2)^2)

    with P_max = eta (2F/pi) P_trap the on-resonance buildup and
    L_cav = L_rt/2.  This is the slope of the radiation-pressure force
    2 P_circ(delta) / c versus mirror position in the adiabatic limit
    (valid for mechanical frequencies well below kappa).  Odd in delta;
    zero trap power or zero detuning gives no spring.
    """
    if cavity.trap_power == 0.0:
        return 0.0
    delta = cavity.trap_detuning_in_kappa
    if delta == 0.0:
        warnings.warn("trap beam on resonance: no optical spring", stacklevel=2)
        return 0.0
    p_max = circulating_power(cavity, cavity.trap_power, 0.0)
    kappa = cavity_kappa(cavity)
    return (
        (2.0 / CONST.c)
        * (cavity.laser_omega / cavity.cavity_length)
        * p_max
        * 2.0
        * delta
        / (kappa * (1.0 + delta**2) ** 2)
    )


@dataclass(frozen=True)
class EffectiveOscillator:
    """The pendulum stiffened (or softened) by the optical spring.

    For a restoring spring omega_eff^2 = omega_opt^2 + omega_m^2 and
    Q_eff = Q_m (omega_eff/omega_m)^2 hold exactly.
    anti_damped flags the sign of the optical damping that
    accompanies a single-beam restoring spring in the adiabatic limit;
    stabilizing it (second beam or feedback) is outside this model.
    """

    mass: float
    omega_m: float
    q_m: float
    k_opt: float
    k_g: float
    omega_opt: float
    omega_eff: float
    q_eff: float
    spring_ratio: float
    anti_damped: bool

    @property
    def omega_eff_hz(self) -> float:
        return self.omega_eff / (2.0 * math.pi)

    def to_dict(self) -> dict:
        return {
            "mass_kg": self.mass,
            "omega_m_rad_per_s": self.omega_m,
            "q_m": self.q_m,
            "k_opt_n_per_m": self.k_opt,
            "k_g_n_per_m": self.k_g,
            "omega_opt_rad_per_s": self.omega_opt,
            "omega_eff_rad_per_s": self.omega_eff,
            "f_eff_hz": self.omega_eff_hz,
            "q_eff": self.q_eff,
            "spring_ratio": self.spring_ratio,
            "anti_damped": self.anti_damped,
        }


def stiffened_oscillator(
    mass: float, omega_m: float, q_m: float, k_opt: float
) -> EffectiveOscillator:
    """Combine a bare oscillator with an optical spring constant.

    A negative k_opt softens the pendulum (omega_eff below omega_m); at
    or beyond the gravitational rigidity there is no stable effective
    oscillator and a domain error is raised.
    """
    _require_positive("mass", mass)
    _require_positive("omega_m", omega_m)
    _require_positive("q_m", q_m)
    k_g = mass * omega_m**2
    if k_opt <= -k_g:
        raise DomainError("anti-restoring optical spring exceeds gravitational rigidity")
    omega_opt = math.sqrt(max(k_opt, 0.0) / mass)
    omega_eff = math.sqrt(omega_m**2 + k_opt / mass)
    q_eff = q_m * (omega_eff / omega_m) ** 2
    return EffectiveOscillator(
        mass=mass,
        omega_m=omega_m,
        q_m=q_m,
        k_opt=k_opt,
        k_g=k_g,
        omega_opt=omega_opt,
        omega_eff=omega_eff,
        q_eff=q_eff,
        spring_ratio=k_opt / k_g,
        anti_damped=k_opt > 0.0,
    )


def effective_oscillator(model: PendulumModel, cavity: Cavity) -> EffectiveOscillator:
    """Effective oscillator of the model's pendulum under the cavity's trap."""
    mode = pendulum_mode(model)
    return stiffened_oscillator(
        model.test_mass.mass, mode.frequency, mode.quality_factor, optical_rigidity(cavity)
    )


def shot_noise_rin(power: float, wavelength: float) -> float:
    """Shot-noise relative intensity noise sqrt(2 hbar omega_L / P) [1/sqrt(Hz)]."""
    _require_positive("power", power)
    omega_l = 2.0 * math.pi * CONST.c / _require_positive("wavelength", wavelength)
    return math.sqrt(2.0 * CONST.hbar * omega_l / power)


def radiation_pressure_force_psd(cavity: Cavity) -> float:
    """One-sided back-action force PSD of the resonant probe [N^2/Hz].

    Photon shot noise of the circulating probe beats against the mean
    field; in the adiabatic limit (omega << kappa) the force spectrum is
    white:

      S_F = 2 hbar omega_L / c^2 * (2F/pi)^2 * 4 eta P_probe
          = 32 hbar omega_L F^2 eta P_probe / (pi^2 c^2)
    """
    _require_positive("probe_power", cavity.probe_power)
    return (
        32.0
        * CONST.hbar
        * cavity.laser_omega
        * cavity.finesse**2
        * cavity.coupling_efficiency
        * cavity.probe_power
        / (math.pi**2 * CONST.c**2)
    )


# ---------------------------------------------------------------------------
# Requirement report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequirementReport:
    """Both oscillator-level requirements evaluated for one configuration.

    eq1 is the Qf-product check on the effective oscillator; the
    measurement-rate band [eq2_edge_hz, inf) is evaluated on the bare
    pendulum.  passed means eq1 holds and the effective frequency sits
    inside the measurement-rate band.
    """

    effective: EffectiveOscillator
    eq1: QfReport
    eq2_edge_hz: float
    sub_sql_band_hz: tuple[tuple[float, float], ...]
    band_overlap_hz: tuple[tuple[float, float], ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "effective": self.effective.to_dict(),
            "eq1": self.eq1.to_dict(),
            "eq2_edge_hz": self.eq2_edge_hz,
            "sub_sql_band_hz": [list(b) for b in self.sub_sql_band_hz],
            "band_overlap_hz": [list(b) for b in self.band_overlap_hz],
            "passed": self.passed,
        }


def effective_requirements(
    model: PendulumModel,
    cavity: Cavity,
    sub_sql: list[tuple[float, float]],
) -> RequirementReport:
    """Evaluate both requirements for the trapped pendulum.

    The Qf product uses (omega_eff, Q_eff); the measurement-rate band
    edge uses the bare (omega_m, Q_m) and is the same closed form the
    suspension module exposes.  Both take the temperature of model.env.
    sub_sql is the thermal sub-SQL band, e.g. budget.thermal_sub_sql_band
    of the model on a config's grid.  The report lists the overlap of
    the measurement-rate band with the sub-SQL band: frequencies where
    the oscillator is simultaneously measurable and below the SQL.
    """
    temperature = model.env.temperature
    eff = effective_oscillator(model, cavity)
    eq1 = qf_requirement(eff.omega_eff, eff.q_eff, temperature)
    edge_hz = measurement_band_edge(eff.omega_m, eff.q_m, temperature)
    overlap = tuple(
        (max(lo, edge_hz), hi) for lo, hi in sub_sql if hi > max(lo, edge_hz)
    )
    passed = eq1.passed and eff.omega_eff_hz >= edge_hz
    return RequirementReport(
        effective=eff,
        eq1=eq1,
        eq2_edge_hz=edge_hz,
        sub_sql_band_hz=tuple(tuple(b) for b in sub_sql),
        band_overlap_hz=overlap,
        passed=passed,
    )
