"""Physical constants, materials, and geometry types shared by all modules.

Unit conventions used throughout the package:
  * SI units everywhere; spectra and rates are functions of angular
    frequency omega [rad/s] internally, Hz appears only at I/O boundaries.
  * Beam radii are 1/e^2 intensity radii.
All value types are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# number format of every CSV cell and of every float rounded for JSON:
# 9 significant digits, "." decimal, locale-independent
_CSV_FLOAT = "%.8e"

class DomainError(ValueError):
    """Input outside the physical domain of an operation."""


class ConfigError(ValueError):
    """Invalid, missing, or inconsistent configuration."""


class ShapeError(ValueError):
    """Array arguments with incompatible shapes or grids."""


class FitError(RuntimeError):
    """A fit could not be performed on the given data."""


class InsufficientDataError(FitError):
    """Not enough usable samples or bins to fit."""


class DegenerateFitError(FitError):
    """Singular normal equations or otherwise degenerate fit."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0.0:
        raise DomainError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Constants:
    """CODATA physical constants.

    k_B  Boltzmann constant [J/K]
    hbar reduced Planck constant [J s]
    c    speed of light [m/s]
    g    standard gravity [m/s^2]
    """

    k_B: float = 1.380649e-23
    hbar: float = 1.054571817e-34
    c: float = 2.99792458e8
    g: float = 9.80665


CONST = Constants()


@dataclass(frozen=True)
class Material:
    """Elastic, loss, and thermal properties of a fiber/mirror substance.

    The surface loss anchor ``surface_q_reference`` is a (Q, radius [m])
    pair: the surface-limited quality factor measured at that fiber
    radius, scaled linearly in radius elsewhere.  measured_q, when set,
    is used as the material Q instead of the loss-channel sum (a torsion
    ring-down gives it directly).  Thermal fields may be None for
    materials where the thermoelastic model is not needed.
    """

    name: str
    young_modulus: float            # E [Pa]
    shear_modulus: float            # G [Pa]
    density: float                  # rho [kg/m^3]
    poisson_ratio: float            # sigma, dimensionless
    bulk_loss_angle: float          # phi_mat, dimensionless
    surface_q_reference: tuple[float, float] | None = None  # (Q, r_ref [m])
    measured_q: float | None = None             # directly measured material Q
    thermal_expansion: float | None = None      # alpha [1/K]
    specific_heat: float | None = None          # C [J/(kg K)]
    thermal_conductivity: float | None = None   # kappa_th [W/(m K)]

    def __post_init__(self):
        _require_positive("young_modulus", self.young_modulus)
        _require_positive("shear_modulus", self.shear_modulus)
        _require_positive("density", self.density)
        _require_positive("bulk_loss_angle", self.bulk_loss_angle)
        sigma = _require_finite("poisson_ratio", self.poisson_ratio)
        if not 0.0 <= sigma < 0.5:
            raise DomainError(f"poisson_ratio must be in [0, 0.5), got {sigma}")
        if self.surface_q_reference is not None:
            q_ref, r_ref = self.surface_q_reference
            _require_positive("surface_q_reference Q", q_ref)
            _require_positive("surface_q_reference radius", r_ref)
        if self.measured_q is not None:
            _require_positive("measured_q", self.measured_q)
        for attr in ("thermal_expansion", "specific_heat", "thermal_conductivity"):
            value = getattr(self, attr)
            if value is not None:
                _require_positive(attr, value)


# Handbook values for fused silica; the loss angle is set so that bulk
# plus surface loss at a 0.5 um fiber radius reproduces a material Q
# near 1.2e4.  These are configuration defaults, not measured truth.
FUSED_SILICA = Material(
    name="fused silica",
    young_modulus=72e9,
    shear_modulus=31e9,
    density=2200.0,
    poisson_ratio=0.17,
    bulk_loss_angle=3.3e-5,
    surface_q_reference=(2.0e4, 0.5e-6),
    thermal_expansion=5.5e-7,
    specific_heat=740.0,
    thermal_conductivity=1.38,
)


@dataclass(frozen=True)
class Fiber:
    """Suspension fiber: length [m], radius [m], and material."""

    length: float
    radius: float
    material: Material = FUSED_SILICA

    def __post_init__(self):
        _require_positive("length", self.length)
        _require_positive("radius", self.radius)
        if self.length / self.radius <= 100.0:
            warnings.warn(
                f"fiber aspect ratio l/r = {self.length / self.radius:.1f} <= 100; "
                "thin-fiber model may be inaccurate",
                stacklevel=2,
            )

    @property
    def cross_section(self) -> float:
        """Cross-sectional area pi r^2 [m^2]."""
        return math.pi * self.radius**2

    @property
    def linear_density(self) -> float:
        """Mass per unit length rho pi r^2 [kg/m]."""
        return self.material.density * self.cross_section


@dataclass(frozen=True)
class TestMass:
    """Suspended mirror: a disk of mass ``mass`` hanging from its rim.

    attachment_offset is the pivot-to-center-of-mass distance; it
    defaults to the disk radius (fiber welded at the rim).  beam_radius
    is the 1/e^2 intensity radius of the readout beam on the face.
    """

    mass: float                     # m [kg]
    disk_radius: float              # R [m]
    thickness: float                # h [m]
    substrate_loss_angle: float = 1e-6
    coating_loss_angle: float = 3e-5
    coating_thickness: float = 4.5e-6   # d [m]
    beam_radius: float = 184e-6         # w [m]
    attachment_offset: float | None = None  # b [m], default R
    density: float | None = None    # optional, for mass-consistency check

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("disk_radius", self.disk_radius)
        _require_positive("thickness", self.thickness)
        _require_nonnegative("substrate_loss_angle", self.substrate_loss_angle)
        _require_nonnegative("coating_loss_angle", self.coating_loss_angle)
        _require_nonnegative("coating_thickness", self.coating_thickness)
        _require_positive("beam_radius", self.beam_radius)
        if self.attachment_offset is None:
            object.__setattr__(self, "attachment_offset", self.disk_radius)
        else:
            _require_positive("attachment_offset", self.attachment_offset)
        if self.density is not None:
            implied = self.density * math.pi * self.disk_radius**2 * self.thickness
            mismatch = abs(self.mass - implied) / self.mass
            if mismatch >= 0.2:
                warnings.warn(
                    f"mass {self.mass:.3g} kg differs from density*volume "
                    f"{implied:.3g} kg by {100 * mismatch:.0f}%",
                    stacklevel=2,
                )

    @property
    def pivot_moment_of_inertia(self) -> float:
        """Moment of inertia about the in-plane diameter axis through the pivot.

        I = m (R^2/4 + h^2/12) + m b^2 (parallel-axis from the CM diameter axis).
        """
        i_cm = self.mass * (self.disk_radius**2 / 4.0 + self.thickness**2 / 12.0)
        return i_cm + self.mass * self.attachment_offset**2

    @property
    def spin_moment_of_inertia(self) -> float:
        """Moment of inertia about the disk symmetry axis, m R^2 / 2."""
        return self.mass * self.disk_radius**2 / 2.0


@dataclass(frozen=True)
class Environment:
    """Thermal bath and residual-gas environment."""

    temperature: float = 300.0          # T [K]
    pressure: float = 0.0               # P [Pa]
    gas_molecular_mass: float = 4.8e-26  # [kg], air

    def __post_init__(self):
        _require_positive("temperature", self.temperature)
        _require_nonnegative("pressure", self.pressure)
        _require_positive("gas_molecular_mass", self.gas_molecular_mass)


def zero_point_motion(mass: float, omega: float) -> float:
    """RMS zero-point displacement sqrt(hbar / (2 m omega)) [m].

    Args:
        mass: oscillator mass [kg], > 0
        omega: resonance angular frequency [rad/s], > 0
    """
    _require_positive("mass", mass)
    _require_positive("omega", omega)
    return math.sqrt(CONST.hbar / (2.0 * mass * omega))


def thermal_decoherence_rate(temperature: float) -> float:
    """Thermal decoherence rate k_B T / hbar [rad/s]."""
    _require_positive("temperature", temperature)
    return CONST.k_B * temperature / CONST.hbar
