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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CONST,
    ConfigError,
    DomainError,
    ShapeError,
    TestMass,
    _cell_rows,
    _csv_column,
    _csv_text,
    _json_float_bytes,
    _require_positive,
)
from .cavity import Cavity, radiation_pressure_force_psd
from .suspension import Mode, PendulumModel, suspension_modes


def log_grid(f_min: float, f_max: float, points: int) -> np.ndarray:
    """Logarithmic frequency grid [Hz]."""
    _require_positive("f_min", f_min)
    if f_max <= f_min:
        raise DomainError(f"f_max must exceed f_min, got [{f_min}, {f_max}]")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points}")
    return np.geomspace(f_min, f_max, points)


def _unchecked_arithmetic():
    """A context without numpy's float warnings: overflow, division by
    zero and invalid results of extreme grids become inf or nan, which
    NoiseSpectrum's finite, positive check turns into a DomainError."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _checked_grid(grid_hz) -> np.ndarray:
    grid = np.asarray(grid_hz, dtype=float)
    # one pass accepts a good grid: a positive first point, a finite last
    # point and every step up; the checks below only choose the error
    if grid.ndim == 1 and grid.size and 0.0 < grid[0] and grid[-1] < math.inf:
        if (grid[1:] > grid[:-1]).all():
            return grid
    if grid.ndim != 1 or grid.size < 1:
        raise ShapeError("grid must be a 1-d array")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("grid must be positive and finite (0 Hz is not allowed)")
    # a 1-d, positive and finite grid passes the one-pass test's end
    # checks, so it failed there because some step does not rise
    raise DomainError("grid must be strictly increasing")


@dataclass(frozen=True)
class NoiseSpectrum:
    """One labeled ASD trace on a strictly increasing positive grid."""

    frequencies: np.ndarray  # [Hz]
    asd: np.ndarray          # [m/sqrt(Hz)]
    label: str

    def __post_init__(self):
        freqs = _checked_grid(self.frequencies)
        asd = np.asarray(self.asd, dtype=float)
        if asd.shape != freqs.shape:
            raise ShapeError(
                f"frequencies {freqs.shape} and asd {asd.shape} must be equal-length 1-d"
            )
        # a NaN makes min() NaN, which fails the comparison
        if not (asd.min() > 0.0 and asd.max() < math.inf):
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
    """Component spectra, their quadrature-sum total, and the SQL reference.

    The total is derived here, once: every component must share the
    SQL's grid, and their powers are summed in component order.
    """

    components: tuple[NoiseSpectrum, ...]
    sql: NoiseSpectrum
    total: NoiseSpectrum = field(init=False)

    def __post_init__(self):
        if not self.components:
            raise ShapeError("at least one component is required")
        grid = self.sql.frequencies
        power = np.zeros_like(grid)
        for spec in self.components:
            if not np.array_equal(spec.frequencies, grid):
                raise ShapeError(f"component {spec.label!r} is not on the budget grid")
            with _unchecked_arithmetic():  # an overflowing power fails as the total
                power += spec.asd**2
        object.__setattr__(self, "total", NoiseSpectrum(grid, np.sqrt(power), "total"))

    @property
    def frequencies(self) -> np.ndarray:
        return self.total.frequencies


# ---------------------------------------------------------------------------
# Component spectra
# ---------------------------------------------------------------------------

def suspension_thermal_asd(
    modes: list[Mode],
    temperature: float,
    grid_hz,
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
    with _unchecked_arithmetic():
        thermal = 4.0 * CONST.k_B * temperature / omega
        omega_sq = omega**2
        s_x = np.zeros_like(omega)
        for mode in modes:
            w_n = mode.frequency
            phi = mode.loss_angle
            m_n = mode.effective_mass
            s_x += thermal * (w_n**2 * phi) / (m_n * ((w_n**2 - omega_sq) ** 2 + w_n**4 * phi**2))
    return NoiseSpectrum(grid, np.sqrt(s_x), "suspension thermal")


def mirror_thermal_asd(
    test_mass: TestMass,
    young_modulus: float,
    poisson_ratio: float,
    temperature: float,
    grid_hz,
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
    w, phi_sub = test_mass.beam_radius, test_mass.substrate_loss_angle  # TestMass checked both
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    coating_factor = 1.0 + (
        (2.0 / math.sqrt(math.pi))
        * ((1.0 - 2.0 * poisson_ratio) / (1.0 - poisson_ratio))
        * (test_mass.coating_loss_angle / phi_sub)
        * (test_mass.coating_thickness / w)
    )
    with _unchecked_arithmetic():
        s_sub = (
            (4.0 * CONST.k_B * temperature / omega)
            * (1.0 - poisson_ratio**2)
            / (math.sqrt(math.pi) * young_modulus * w)
            * phi_sub
        )
        asd = np.sqrt(s_sub * coating_factor)
    return NoiseSpectrum(grid, asd, "mirror thermal")


def sql_asd(mass: float, grid_hz) -> NoiseSpectrum:
    """Free-mass standard quantum limit sqrt(2 hbar / m) / omega."""
    _require_positive("mass", mass)
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    with _unchecked_arithmetic():
        asd = math.sqrt(2.0 * CONST.hbar / mass) / omega
    return NoiseSpectrum(grid, asd, "SQL")


def quantum_noise_asd(cavity: Cavity, mass: float, grid_hz) -> NoiseSpectrum:
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
    s_f = radiation_pressure_force_psd(cavity)
    grid = _checked_grid(grid_hz)
    omega = 2.0 * math.pi * grid
    s_shot = CONST.hbar**2 / s_f
    with _unchecked_arithmetic():
        s_rp = s_f / (mass**2 * omega**4)
        asd = np.sqrt(s_shot + s_rp)
    return NoiseSpectrum(grid, asd, "quantum noise")


# ---------------------------------------------------------------------------
# Assembly and band finding
# ---------------------------------------------------------------------------

def total_budget(components: list[NoiseSpectrum], mass: float, grid_hz) -> Budget:
    """Quadrature-sum the components and attach the SQL reference."""
    return Budget(tuple(components), sql_asd(mass, grid_hz))


def sub_sql_band(budget: Budget) -> list[tuple[float, float]]:
    """Maximal frequency intervals [Hz] where the budget's total is below the SQL.

    Band edges between grid points are interpolated linearly in log-log
    space.
    """
    freqs = budget.frequencies
    log_ratio = np.log(budget.total.asd) - np.log(budget.sql.asd)
    below = log_ratio < 0.0

    def crossing(i: int, j: int) -> float:
        # log-log interpolation of ratio = 1 between adjacent grid points i, j
        lf0, lf1 = math.log(freqs[i]), math.log(freqs[j])
        r0, r1 = log_ratio[i], log_ratio[j]
        t = (0.0 - r0) / (r1 - r0)
        return math.exp(lf0 + t * (lf1 - lf0))

    n = freqs.size
    # runs of below: changes of the False-padded mask alternate run
    # start (first index below) and run end + 1
    changes = np.flatnonzero(np.diff(np.concatenate(([False], below, [False]))))
    bands: list[tuple[float, float]] = []
    for i, j in zip(changes[0::2].tolist(), (changes[1::2] - 1).tolist()):
        f_lo = float(freqs[0]) if i == 0 else crossing(i - 1, i)
        f_hi = float(freqs[-1]) if j == n - 1 else crossing(j, j + 1)
        bands.append((f_lo, f_hi))
    return bands


COMPONENT_NAMES = ("suspension", "mirror", "quantum")


def model_components(
    model: PendulumModel,
    names,
    grid_hz,
    cavity: Cavity | None = None,
) -> list[NoiseSpectrum]:
    """The named components of one pendulum model's budget, in order.

    names are drawn from COMPONENT_NAMES, each at most once: "suspension"
    (pendulum, pitch and the model's violin modes), "mirror" (substrate +
    coating of the fiber material) and "quantum" (needs the readout
    cavity).  The thermal components take the temperature of model.env.
    """
    temperature = model.env.temperature
    material = model.fiber.material
    spectra = []
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"budget component {name!r} is given twice")
        if name == "suspension":
            spectra.append(suspension_thermal_asd(suspension_modes(model), temperature, grid_hz))
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


def thermal_sub_sql_band(model: PendulumModel, grid_hz) -> list[tuple[float, float]]:
    """Sub-SQL band [Hz] of the model's suspension + mirror thermal noise."""
    components = model_components(model, ("suspension", "mirror"), grid_hz)
    return sub_sql_band(total_budget(components, model.test_mass.mass, grid_hz))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "frequency_hz,asd_m_per_sqrthz,label"


def spectra_to_csv(spectra: list[NoiseSpectrum]) -> str:
    """Long-format CSV, one block per spectrum, deterministic bytes.

    Consecutive spectra on equal grids share the grid column's cells.
    """
    blocks = [CSV_HEADER + "\n"]
    grid = freq_cells = None
    for spec in spectra:
        if grid is None or not np.array_equal(spec.frequencies, grid):
            grid, freq_cells = spec.frequencies, _csv_column(spec.frequencies)
        blocks.append(_csv_text([freq_cells, spec.asd], f",{spec.label}\n"))
    return "".join(blocks)


def _json_array(values) -> str:
    # one number per line at the arrays' depth, a comma after all but the last
    return _cell_rows([" " * 8, _json_float_bytes(values), ",\n"])[:-2] + "\n"


def spectra_to_json(spectra: list[NoiseSpectrum]) -> str:
    """The spectra as json.dumps(indent=2, sort_keys=True) writes them,
    each number the float nearest its _CSV_FLOAT cell.

    Consecutive spectra on equal grids share the grid's text, and the
    text is joined once.
    """
    if not spectra:
        return '{\n  "spectra": []\n}\n'
    parts = ['{\n  "spectra": [\n']
    grid = freq_text = None
    for spec in spectra:
        if grid is None or not np.array_equal(spec.frequencies, grid):
            grid, freq_text = spec.frequencies, _json_array(spec.frequencies)
        parts += [
            '    {\n      "asd_m_per_sqrthz": [\n',
            _json_array(spec.asd),
            '      ],\n      "frequency_hz": [\n',
            freq_text,
            f'      ],\n      "label": {json.dumps(spec.label)}\n    }},\n',
        ]
    parts[-1] = parts[-1][:-2] + "\n  ]\n}\n"
    return "".join(parts)
