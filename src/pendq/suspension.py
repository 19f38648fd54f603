"""Mechanical model of the single-wire pendulum suspension.

Mode frequencies, dissipation dilution, structural damping, the
loss-channel budget (bulk, surface, thermoelastic, residual gas), and
the two oscillator-level requirement checks:

  (1) Qf product:       Q_m * omega_m > k_B T / hbar
  (2) measurement rate: omega^2 / gamma(omega) > 4 k_B T / hbar

With structural damping gamma(omega) = omega_m^2 / (Q_m omega), the
second requirement reduces to a closed-form frequency band edge.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    CONST,
    ConfigError,
    DomainError,
    Environment,
    Fiber,
    TestMass,
    _require_positive,
    thermal_decoherence_rate,
)

# Fundamental radial thermal relaxation of a cylinder: tau = rho C r^2 / (Z kappa)
ZENER_MODE_CONSTANT = 2.16**2

# Diffuse accommodation drag coefficient for a disk moving normal to its faces.
GAS_DRAG_COEFFICIENT = 1.0 + math.pi / 4.0

# Fraction of the pendulum dilution factor credited to higher-order wire
# modes (violin, pitch): those modes bend the wire at both anchors, so
# they keep half the pendulum-mode dilution.
DEFAULT_MODE_DILUTION_FRACTION = 0.5


class ModeKind(Enum):
    PENDULUM = "pendulum"
    VIOLIN = "violin"
    PITCH = "pitch"
    YAW = "yaw"


@dataclass(frozen=True)
class Mode:
    """One mechanical mode as seen by the cavity readout.

    frequency is angular [rad/s]; effective_mass is referenced to
    test-mass displacement along the optical axis.
    """

    kind: ModeKind
    frequency: float
    quality_factor: float
    effective_mass: float
    order: int = 0  # violin harmonic number, 0 otherwise

    def __post_init__(self):
        _require_positive("frequency", self.frequency)
        _require_positive("quality_factor", self.quality_factor)
        _require_positive("effective_mass", self.effective_mass)
        if self.kind is ModeKind.VIOLIN and self.order < 1:
            raise DomainError("violin modes must have order >= 1")

    @property
    def frequency_hz(self) -> float:
        return self.frequency / (2.0 * math.pi)

    @property
    def loss_angle(self) -> float:
        return 1.0 / self.quality_factor


@dataclass(frozen=True)
class PendulumModel:
    """Fiber + test mass + environment, with the optional measured Q and
    the number of violin modes in the noise budget (none if <= 0)."""

    fiber: Fiber
    test_mass: TestMass
    env: Environment = Environment()
    measured_pendulum_q: float | None = None
    violin_modes: int = 2

    def __post_init__(self):
        if self.measured_pendulum_q is not None:
            _require_positive("measured_pendulum_q", self.measured_pendulum_q)


@dataclass(frozen=True)
class LossBudget:
    """Per-channel loss angles and their sum, derived here."""

    contributions: tuple[tuple[str, float], ...]
    total_phi: float = field(init=False)

    def __post_init__(self):
        contributions = tuple(self.contributions)
        for name, phi in contributions:
            if phi < 0:
                raise DomainError(f"loss channel {name!r} has negative phi {phi}")
        object.__setattr__(self, "contributions", contributions)
        object.__setattr__(self, "total_phi", float(sum(phi for _, phi in contributions)))


# ---------------------------------------------------------------------------
# Mode frequencies
# ---------------------------------------------------------------------------

def pendulum_frequency(model: PendulumModel) -> float:
    """Pendulum-mode angular frequency sqrt(g / l) [rad/s].

    Massless-wire point-mass relation; wire-mass corrections are below
    0.1% for the geometries this package targets.
    """
    return math.sqrt(CONST.g / model.fiber.length)


def violin_modes(model: PendulumModel, n_max: int) -> list[Mode]:
    """Transverse standing-wave modes of the tensioned fiber.

    Ideal taut string under tension m g: omega_n = (n pi / l) sqrt(m g / mu)
    with mu the fiber linear density, so the harmonics are exact integer
    multiples of the fundamental.  Effective masses referenced to
    test-mass displacement follow the standard modal result
    m_n = m^2 pi^2 n^2 / (2 mu l); quality factors take
    DEFAULT_MODE_DILUTION_FRACTION of the ideal pendulum Q.

    Args:
        model: fiber, test mass and environment
        n_max: highest harmonic to return, >= 1
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    fiber, mass = model.fiber, model.test_mass.mass
    mu = fiber.linear_density
    tension = mass * CONST.g
    omega_1 = (math.pi / fiber.length) * math.sqrt(tension / mu)
    q_violin = DEFAULT_MODE_DILUTION_FRACTION * ideal_pendulum_q(model)
    modes = []
    for n in range(1, n_max + 1):
        m_eff = (mass**2 * math.pi**2 * n**2) / (2.0 * mu * fiber.length)
        modes.append(
            Mode(
                kind=ModeKind.VIOLIN,
                frequency=n * omega_1,
                quality_factor=q_violin,
                effective_mass=m_eff,
                order=n,
            )
        )
    return modes


def pitch_frequency(test_mass: TestMass) -> float:
    """Pitching-mode angular frequency of the rim-hung disk [rad/s].

    Rigid-body rotation about the attachment point:
    omega^2 = g b / (I_cm/m + b^2), I_cm = m (R^2/4 + h^2/12).
    """
    b = test_mass.attachment_offset
    i_cm_over_m = test_mass.disk_radius**2 / 4.0 + test_mass.thickness**2 / 12.0
    return math.sqrt(CONST.g * b / (i_cm_over_m + b**2))


def yaw_frequency(fiber: Fiber, test_mass: TestMass) -> float:
    """Torsional (yaw) angular frequency sqrt(kappa_t / I_z) [rad/s].

    kappa_t = pi G r^4 / (2 l) for a round fiber, I_z = m R^2 / 2 for
    the disk spinning about its symmetry axis.  Carries no gravitational
    dilution, so its ring-down Q reads the bare material Q.
    """
    kappa_t = (
        math.pi * fiber.material.shear_modulus * fiber.radius**4 / (2.0 * fiber.length)
    )
    return math.sqrt(kappa_t / test_mass.spin_moment_of_inertia)


# ---------------------------------------------------------------------------
# Dissipation dilution and damping
# ---------------------------------------------------------------------------

def dilution_factor(fiber: Fiber, mass: float) -> float:
    """Q enhancement factor k_g / k_el = (4 l / r^2) sqrt(m g / (E pi)).

    Ratio of gravitational to elastic rigidity for a pendulum hung from
    a single wire; multiply the material Q by this to get the ideally
    diluted pendulum Q.
    """
    _require_positive("mass", mass)
    e_mod = fiber.material.young_modulus
    return (4.0 * fiber.length / fiber.radius**2) * math.sqrt(
        mass * CONST.g / (e_mod * math.pi)
    )


def diluted_pendulum_q(fiber: Fiber, mass: float, q_material: float) -> float:
    """Ideal diluted pendulum quality factor: dilution_factor * Q_material."""
    _require_positive("q_material", q_material)
    return dilution_factor(fiber, mass) * q_material


def structural_gamma(omega_m: float, q_m: float, omega) -> float | np.ndarray:
    """Structural-damping dissipation rate gamma(omega) = omega_m^2 / (Q_m omega).

    Constant loss angle phi = 1/Q_m; gamma falls as 1/omega instead of
    staying constant as in viscous damping.  Accepts scalar or array omega.
    """
    _require_positive("omega_m", omega_m)
    _require_positive("q_m", q_m)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0) or not np.all(np.isfinite(omega)):
        raise DomainError("omega must be positive and finite")
    gamma = omega_m**2 / (q_m * omega)
    return float(gamma) if gamma.ndim == 0 else gamma


# ---------------------------------------------------------------------------
# Loss channels
# ---------------------------------------------------------------------------

def surface_limited_q(fiber: Fiber) -> float:
    """Surface-loss-limited material Q, scaled linearly in fiber radius.

    Q_surf = Q_ref * (r / r_ref) from the material's measured anchor point.
    """
    anchor = fiber.material.surface_q_reference
    if anchor is None:
        raise ConfigError(
            f"material {fiber.material.name!r} has no surface-loss reference point"
        )
    q_ref, r_ref = anchor
    return q_ref * (fiber.radius / r_ref)


def thermoelastic_loss_angle(fiber: Fiber, env: Environment, omega) -> float | np.ndarray:
    """Linear Zener thermoelastic loss angle of the fiber.

    phi_te(omega) = (E alpha^2 T / (rho C)) * omega tau / (1 + (omega tau)^2)
    with the relaxation time tau = rho C r^2 / (2.16^2 kappa_th) of the
    fundamental radial thermal mode.  Peaks at omega tau = 1 with value
    E alpha^2 T / (2 rho C).  Informational: for um-scale silica fibers
    the peak sits in the MHz range, far above the measurement band.
    """
    mat = fiber.material
    if mat.thermal_expansion is None or mat.specific_heat is None or (
        mat.thermal_conductivity is None
    ):
        raise ConfigError(
            f"material {mat.name!r} is missing thermal properties for the Zener model"
        )
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise DomainError("omega must be >= 0")
    strength = (
        mat.young_modulus * mat.thermal_expansion**2 * env.temperature
        / (mat.density * mat.specific_heat)
    )
    tau = (
        mat.density * mat.specific_heat * fiber.radius**2
        / (ZENER_MODE_CONSTANT * mat.thermal_conductivity)
    )
    # as the conductivity nears 0, (omega tau)^2 and then omega tau
    # overflow to inf: phi_te takes its omega tau -> inf limit there, 0
    with np.errstate(over="ignore", invalid="ignore"):
        x = omega * tau
        phi = np.where(x < math.inf, strength * x / (1.0 + x**2), 0.0)
    return float(phi) if phi.ndim == 0 else phi


def material_loss_budget(fiber: Fiber, env: Environment, omega: float) -> LossBudget:
    """Material-level loss channels of the fiber at angular frequency omega.

    Channels: bulk, surface (as 1/Q_surf), thermoelastic.  The inverse
    of total_phi is the frequency-dependent material Q that dilution
    acts on.
    """
    channels = [
        ("bulk", fiber.material.bulk_loss_angle),
        ("surface", 1.0 / surface_limited_q(fiber)),
        ("thermoelastic", float(thermoelastic_loss_angle(fiber, env, omega))),
    ]
    return LossBudget(channels)


def material_q(fiber: Fiber, env: Environment) -> float:
    """Material quality factor: the measured value if the material has one,
    else 1 / total loss angle at 1 rad/s."""
    if fiber.material.measured_q is not None:
        return fiber.material.measured_q
    return 1.0 / material_loss_budget(fiber, env, 1.0).total_phi


def ideal_pendulum_q(model: PendulumModel) -> float:
    """Ideal diluted pendulum Q of the model: dilution factor times the
    material Q in the model's environment.  The pitch and violin modes
    keep DEFAULT_MODE_DILUTION_FRACTION of it."""
    fiber = model.fiber
    return diluted_pendulum_q(fiber, model.test_mass.mass, material_q(fiber, model.env))


def gas_damping_gamma(test_mass: TestMass, env: Environment) -> float:
    """Free-molecular residual-gas damping rate [rad/s].

    gamma_gas = c_d P A / (m v_th) with v_th = sqrt(k_B T / m_gas),
    A = 2 pi R^2 (both disk faces), and c_d = 1 + pi/4 for diffuse
    accommodation on a disk moving normal to its faces.  P = 0 gives 0.
    """
    if env.pressure == 0.0:
        return 0.0
    v_th = math.sqrt(CONST.k_B * env.temperature / env.gas_molecular_mass)
    area = 2.0 * math.pi * test_mass.disk_radius**2
    return GAS_DRAG_COEFFICIENT * env.pressure * area / (test_mass.mass * v_th)


def gas_limited_q(test_mass: TestMass, env: Environment, omega_m: float) -> float:
    """Residual-gas-limited quality factor omega_m / gamma_gas (inf at P = 0)."""
    _require_positive("omega_m", omega_m)
    gamma = gas_damping_gamma(test_mass, env)
    return math.inf if gamma == 0.0 else omega_m / gamma


# ---------------------------------------------------------------------------
# Requirement checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QfReport:
    """Qf-product requirement: lhs = Q_m omega_m vs rhs = k_B T / hbar, and
    the passed and margin derived here; a side or margin that overflows
    is a DomainError."""

    lhs: float
    rhs: float
    passed: bool = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        lhs, rhs = self.lhs, self.rhs
        margin = lhs / rhs
        if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(margin)):
            raise DomainError(
                f"Qf product not finite: Q_m*omega_m = {lhs!r} rad/s, "
                f"k_B*T/hbar = {rhs!r} rad/s, margin {margin!r}"
            )
        object.__setattr__(self, "passed", lhs > rhs)
        object.__setattr__(self, "margin", margin)

    def to_dict(self) -> dict:
        return {
            "lhs_rad_per_s": self.lhs,
            "rhs_rad_per_s": self.rhs,
            "passed": self.passed,
            "margin": self.margin,
        }


def qf_requirement(omega_m: float, q_m: float, temperature: float) -> QfReport:
    """Check Q_m omega_m > k_B T / hbar (one coherent oscillation per phonon)."""
    _require_positive("omega_m", omega_m)
    _require_positive("q_m", q_m)
    return QfReport(lhs=q_m * omega_m, rhs=thermal_decoherence_rate(temperature))


def measurement_band_edge(omega_m: float, q_m: float, temperature: float) -> float:
    """Closed-form lower edge [Hz] of the measurement-rate requirement band.

    With structural damping, omega^2 / gamma(omega) > 4 k_B T / hbar
    reduces to omega^3 > 4 k_B T omega_m^2 / (hbar Q_m); the band edge is

        f* = (4 k_B T omega_m^2 / (hbar Q_m))^(1/3) / (2 pi)
    """
    _require_positive("omega_m", omega_m)
    _require_positive("q_m", q_m)
    _require_positive("temperature", temperature)
    omega_star = (
        4.0 * CONST.k_B * temperature * omega_m**2 / (CONST.hbar * q_m)
    ) ** (1.0 / 3.0)
    return omega_star / (2.0 * math.pi)


def measurement_band_edge_spectrum(
    omega_m: float, q_m: float, temperature: float, freqs_hz: np.ndarray
) -> float:
    """Band edge [Hz] found numerically on a frequency grid.

    Evaluates omega^2 / gamma(omega) against 4 k_B T / hbar on the grid
    and log-log-interpolates the crossing.  Cross-check for
    measurement_band_edge; the two must agree to well under 1% on any
    reasonably dense grid spanning the edge.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    omega = 2.0 * math.pi * freqs_hz
    ratio = omega**2 / structural_gamma(omega_m, q_m, omega)
    threshold = 4.0 * thermal_decoherence_rate(temperature)
    above = ratio > threshold
    if above.all():
        return float(freqs_hz[0])
    if not above.any():
        raise DomainError("grid does not reach the measurement-rate band edge")
    i = int(np.argmax(above))  # first grid point satisfying the requirement
    if i == 0:
        return float(freqs_hz[0])
    # log-log interpolation of ratio(f) = threshold between i-1 and i
    lf0, lf1 = math.log(freqs_hz[i - 1]), math.log(freqs_hz[i])
    lr0, lr1 = math.log(ratio[i - 1]), math.log(ratio[i])
    t = (math.log(threshold) - lr0) / (lr1 - lr0)
    return math.exp(lf0 + t * (lf1 - lf0))


# ---------------------------------------------------------------------------
# Mode assembly for the noise budget
# ---------------------------------------------------------------------------

def pendulum_mode(model: PendulumModel) -> Mode:
    """The pendulum mode with the measured Q if present, else the ideal diluted Q."""
    q = model.measured_pendulum_q
    if q is None:
        q = ideal_pendulum_q(model)
    return Mode(
        kind=ModeKind.PENDULUM,
        frequency=pendulum_frequency(model),
        quality_factor=q,
        effective_mass=model.test_mass.mass,
    )


def pitch_mode(model: PendulumModel) -> Mode:
    """The pitching mode of the rim-hung disk.

    Readout coupling through the lever arm b gives effective mass
    I_pivot / b^2; the quality factor uses the same diluted convention
    as the violin modes (no measured value exists for it).
    """
    tm = model.test_mass
    return Mode(
        kind=ModeKind.PITCH,
        frequency=pitch_frequency(tm),
        quality_factor=DEFAULT_MODE_DILUTION_FRACTION * ideal_pendulum_q(model),
        effective_mass=tm.pivot_moment_of_inertia / tm.attachment_offset**2,
    )


def suspension_modes(model: PendulumModel) -> list[Mode]:
    """Pendulum + pitch + the first model.violin_modes violin modes, for the noise budget."""
    modes = [pendulum_mode(model), pitch_mode(model)]
    if model.violin_modes >= 1:
        modes.extend(violin_modes(model, model.violin_modes))
    return modes
