"""Displacement-noise budget assembly.

Suspension thermal noise from the fluctuation-dissipation theorem with
structural damping, mirror substrate+coating thermal noise, quantum
readout noise (shot + radiation-pressure back-action), the free-mass
standard quantum limit, and the finder for bands where a spectrum dips
below the SQL.

All spectra are one-sided amplitude spectral densities in m/sqrt(Hz) on
a shared frequency grid in Hz.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONST,
    ConfigError,
    DomainError,
    ShapeError,
    TestMass,
    _CSV_FLOAT,
    _require_positive,
)
from .cavity import Cavity, radiation_pressure_force_psd
from .suspension import Mode, PendulumModel, suspension_modes

QUADRATURE_REL_TOL = 1e-12


def log_grid(f_min: float = 10.0, f_max: float = 1.0e4, points: int = 2000) -> np.ndarray:
    """Logarithmic frequency grid [Hz]."""
    _require_positive("f_min", f_min)
    if f_max <= f_min:
        raise DomainError(f"f_max must exceed f_min, got [{f_min}, {f_max}]")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points}")
    return np.geomspace(f_min, f_max, points)


@dataclass(frozen=True)
class NoiseSpectrum:
    """One labeled ASD trace on a strictly increasing positive grid."""

    frequencies: np.ndarray  # [Hz]
    asd: np.ndarray          # [m/sqrt(Hz)]
    label: str

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        asd = np.asarray(self.asd, dtype=float)
        if freqs.ndim != 1 or freqs.shape != asd.shape:
            raise ShapeError(
                f"frequencies {freqs.shape} and asd {asd.shape} must be equal-length 1-d"
            )
        if freqs.size < 1:
            raise ShapeError("empty spectrum")
        if not np.all(np.isfinite(freqs)) or freqs[0] <= 0.0:
            raise DomainError("grid must be positive and finite")
        if np.any(np.diff(freqs) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        if not np.all(np.isfinite(asd)) or np.any(asd <= 0.0):
            raise DomainError(f"spectrum {self.label!r}: asd values must be > 0 and finite")
        freqs.flags.writeable = False
        asd.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "asd", asd)

    def asd_at(self, f_hz: float) -> float:
        """Log-log interpolated ASD at one frequency inside the grid span."""
        f = _require_positive("f_hz", f_hz)
        lo, hi = self.frequencies[0], self.frequencies[-1]
        if not (lo <= f <= hi):
            raise DomainError(f"{f} Hz outside grid span [{lo}, {hi}]")
        return float(
            np.exp(np.interp(np.log(f), np.log(self.frequencies), np.log(self.asd)))
        )


@dataclass(frozen=True)
class Budget:
    """Component spectra, their quadrature-sum total, and the SQL reference."""

    components: tuple[NoiseSpectrum, ...]
    total: NoiseSpectrum
    sql: NoiseSpectrum

    def __post_init__(self):
        grid = self.total.frequencies
        for spec in (*self.components, self.sql):
            if spec.frequencies.shape != grid.shape or not np.array_equal(
                spec.frequencies, grid
            ):
                raise ShapeError(f"{spec.label!r} is not on the budget grid")
        power = np.zeros_like(grid)
        for spec in self.components:
            power += spec.asd**2
        if not np.allclose(self.total.asd**2, power, rtol=QUADRATURE_REL_TOL, atol=0.0):
            raise DomainError("total is not the quadrature sum of the components")

    @property
    def frequencies(self) -> np.ndarray:
        return self.total.frequencies

    def thermal_rss(self) -> np.ndarray:
        """Quadrature sum of the thermal components (labels not starting 'quantum')."""
        power = np.zeros_like(self.frequencies)
        found = False
        for spec in self.components:
            if not spec.label.startswith("quantum"):
                power += spec.asd**2
                found = True
        if not found:
            raise DomainError("budget has no thermal components")
        return np.sqrt(power)


# ---------------------------------------------------------------------------
# Component spectra
# ---------------------------------------------------------------------------

def _checked_grid(grid_hz) -> np.ndarray:
    grid = np.asarray(grid_hz, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ShapeError("grid must be a 1-d array")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("grid must be positive and finite (0 Hz is not allowed)")
    return grid


def suspension_thermal_asd(
    modes: list[Mode],
    temperature: float,
    grid_hz,
    label: str = "suspension thermal",
) -> NoiseSpectrum:
    """FDT displacement noise of structurally damped suspension modes.

    S_x(omega) = sum_n (4 k_B T / omega) * [m_n omega_n^2 phi_n]
                 / [m_n^2 ((omega_n^2 - omega^2)^2 + omega_n^4 phi_n^2)]

    with phi_n = 1/Q_n constant in frequency (structural damping).  Far
    above a resonance each term falls as 1/omega^5 in power, i.e. the
    ASD falls as 1/omega^2.5, faster than a viscously damped oscillator.
    """
    _require_positive("temperature", temperature)
    if not modes:
        raise ShapeError("at least one mode is required")
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    s_x = np.zeros_like(omega)
    for mode in modes:
        w_n = mode.frequency
        phi = mode.loss_angle
        m_n = mode.effective_mass
        s_x += (
            (4.0 * CONST.k_B * temperature / omega)
            * (w_n**2 * phi)
            / (m_n * ((w_n**2 - omega**2) ** 2 + w_n**4 * phi**2))
        )
    return NoiseSpectrum(grid, np.sqrt(s_x), label)


def mirror_thermal_asd(
    test_mass: TestMass,
    young_modulus: float,
    poisson_ratio: float,
    temperature: float,
    grid_hz,
    label: str = "mirror thermal",
) -> NoiseSpectrum:
    """Substrate + coating Brownian noise of the readout face.

    Half-infinite-mirror substrate term under a Gaussian beam of 1/e^2
    intensity radius w,

      S_sub(omega) = (4 k_B T / omega) * (1 - sigma^2) / (sqrt(pi) E w) * phi_sub,

    multiplied by the thin-coating correction
    [1 + (2/sqrt(pi)) * ((1-2 sigma)/(1-sigma)) * (phi_c/phi_sub) * (d/w)].

    The mirror disk is treated as half-infinite; finite-size corrections
    for mm-scale substrates are not modeled, which is why band-edge
    figures derived from this spectrum carry wide tolerances.
    """
    _require_positive("young_modulus", young_modulus)
    _require_positive("temperature", temperature)
    if not 0.0 <= poisson_ratio < 0.5:
        raise DomainError(f"poisson_ratio must be in [0, 0.5), got {poisson_ratio}")
    w = _require_positive("beam_radius", test_mass.beam_radius)
    phi_sub = _require_positive("substrate_loss_angle", test_mass.substrate_loss_angle)
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    s_sub = (
        (4.0 * CONST.k_B * temperature / omega)
        * (1.0 - poisson_ratio**2)
        / (math.sqrt(math.pi) * young_modulus * w)
        * phi_sub
    )
    coating_factor = 1.0 + (
        (2.0 / math.sqrt(math.pi))
        * ((1.0 - 2.0 * poisson_ratio) / (1.0 - poisson_ratio))
        * (test_mass.coating_loss_angle / phi_sub)
        * (test_mass.coating_thickness / w)
    )
    return NoiseSpectrum(grid, np.sqrt(s_sub * coating_factor), label)


def sql_asd(mass: float, grid_hz, label: str = "SQL") -> NoiseSpectrum:
    """Free-mass standard quantum limit sqrt(2 hbar / m) / omega."""
    _require_positive("mass", mass)
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    return NoiseSpectrum(grid, math.sqrt(2.0 * CONST.hbar / mass) / omega, label)


def quantum_noise_asd(
    cavity: Cavity,
    mass: float,
    grid_hz,
    label: str = "quantum noise",
) -> NoiseSpectrum:
    """Probe shot noise plus radiation-pressure back-action, quadrature summed.

    For omega well below the cavity linewidth the back-action force
    spectrum S_F is white; an ideal lossless readout at the Heisenberg
    imprecision-back-action product then has the flat displacement
    imprecision S_shot = hbar^2 / S_F and S_rp(omega) = S_F/(m^2 omega^4).
    By the arithmetic-geometric mean inequality the quadrature sum is
    >= SQL everywhere, touching it where S_shot = S_rp.

    The trap beam's own back-action is not included: its large detuning
    suppresses it, and the probe sets the quantum noise here.
    """
    _require_positive("mass", mass)
    if cavity.probe_power == 0.0:
        raise DomainError("zero probe power gives infinite shot noise")
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    s_f = radiation_pressure_force_psd(cavity)
    s_shot = CONST.hbar**2 / s_f
    s_rp = s_f / (mass**2 * omega**4)
    return NoiseSpectrum(grid, np.sqrt(s_shot + s_rp), label)


# ---------------------------------------------------------------------------
# Assembly and band finding
# ---------------------------------------------------------------------------

def total_budget(components: list[NoiseSpectrum], mass: float, grid_hz) -> Budget:
    """Quadrature-sum the components and attach the SQL reference."""
    if not components:
        raise ShapeError("at least one component is required")
    grid = _checked_grid(grid_hz)
    power = np.zeros_like(grid)
    for spec in components:
        if spec.frequencies.shape != grid.shape or not np.array_equal(
            spec.frequencies, grid
        ):
            raise ShapeError(f"component {spec.label!r} is not on the budget grid")
        power += spec.asd**2
    total = NoiseSpectrum(grid, np.sqrt(power), "total")
    return Budget(tuple(components), total, sql_asd(mass, grid))


def sub_sql_band(budget: Budget, which: str = "thermal-only") -> list[tuple[float, float]]:
    """Maximal frequency intervals [Hz] where the spectrum is below the SQL.

    which = "thermal-only" compares the quadrature sum of the thermal
    components (the budget's quantum/readout traces excluded); "total"
    compares the full total.  Band edges between grid points are
    interpolated linearly in log-log space.
    """
    if which == "thermal-only":
        asd = budget.thermal_rss()
    elif which == "total":
        asd = budget.total.asd
    else:
        raise DomainError(f"which must be 'thermal-only' or 'total', got {which!r}")
    freqs = budget.frequencies
    log_ratio = np.log(asd) - np.log(budget.sql.asd)
    below = log_ratio < 0.0

    def crossing(i: int, j: int) -> float:
        # log-log interpolation of ratio = 1 between adjacent grid points i, j
        lf0, lf1 = math.log(freqs[i]), math.log(freqs[j])
        r0, r1 = log_ratio[i], log_ratio[j]
        t = (0.0 - r0) / (r1 - r0)
        return math.exp(lf0 + t * (lf1 - lf0))

    bands: list[tuple[float, float]] = []
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


COMPONENT_NAMES = ("suspension", "mirror", "quantum")


def model_components(
    model: PendulumModel,
    names,
    grid_hz,
    n_violin: int,
    cavity: Cavity | None = None,
    temperature: float | None = None,
) -> list[NoiseSpectrum]:
    """The named components of one pendulum model's budget, in order.

    names are drawn from COMPONENT_NAMES: "suspension" (pendulum, pitch
    and the first n_violin violin modes), "mirror" (substrate + coating
    of the fiber material) and "quantum" (needs the readout cavity).
    temperature defaults to the model's environment.
    """
    if temperature is None:
        temperature = model.env.temperature
    material = model.fiber.material
    spectra = []
    for name in names:
        if name == "suspension":
            modes = suspension_modes(model, n_violin=n_violin)
            spectra.append(suspension_thermal_asd(modes, temperature, grid_hz))
        elif name == "mirror":
            spectra.append(
                mirror_thermal_asd(
                    model.test_mass,
                    material.young_modulus,
                    material.poisson_ratio,
                    temperature,
                    grid_hz,
                )
            )
        elif name == "quantum":
            if cavity is None:
                raise DomainError("the quantum component needs a readout cavity")
            spectra.append(quantum_noise_asd(cavity, model.test_mass.mass, grid_hz))
        else:
            raise ConfigError(
                f"unknown budget component {name!r}; choose from "
                f"{', '.join(COMPONENT_NAMES)}"
            )
    return spectra


def thermal_sub_sql_band(
    model: PendulumModel,
    grid_hz,
    n_violin: int,
    temperature: float | None = None,
) -> list[tuple[float, float]]:
    """Sub-SQL band [Hz] of the model's suspension + mirror thermal noise."""
    components = model_components(
        model, ("suspension", "mirror"), grid_hz, n_violin, temperature=temperature
    )
    return sub_sql_band(total_budget(components, model.test_mass.mass, grid_hz))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "frequency_hz,asd_m_per_sqrthz,label"


def spectra_to_csv(spectra: list[NoiseSpectrum]) -> str:
    """Long-format CSV, one block per spectrum, deterministic bytes."""
    lines = [CSV_HEADER]
    for spec in spectra:
        for f, a in zip(spec.frequencies, spec.asd):
            lines.append(f"{_CSV_FLOAT % f},{_CSV_FLOAT % a},{spec.label}")
    return "\n".join(lines) + "\n"


def spectra_to_json(spectra: list[NoiseSpectrum]) -> str:
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
