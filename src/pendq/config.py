"""YAML configuration: schema, defaults, overrides, model builders.

The built-in preset describes the reference experiment this package
models: a 7 mg fused-silica disk on a 5 cm x 1 um-diameter silica
fiber read out by a finesse-5000 cavity.  User configs override any
subset of keys; unknown keys are rejected with their location.  The
preset doubles as the schema: each key's kind follows its preset value.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
import yaml

from .budget import log_grid
from .cavity import Cavity
from .core import (
    FUSED_SILICA,
    ConfigError,
    DomainError,
    Environment,
    Fiber,
    Material,
    TestMass,
)
from .suspension import PendulumModel


def _material_section(material: Material, measured_q: float) -> dict[str, Any]:
    section = asdict(replace(material, measured_q=measured_q))
    q, radius = material.surface_q_reference
    section["surface_q_reference"] = {"q": q, "radius": radius}
    return section


PAPER_PRESET: dict[str, Any] = {
    "material": _material_section(FUSED_SILICA, measured_q=1.2e4),
    "fiber": {"length": 0.05, "radius": 0.5e-6},
    "test_mass": {
        "mass": 7.0e-6,
        "disk_radius": 1.5e-3,
        "thickness": 4.5e-4,
        "substrate_loss_angle": 1.0e-6,
        "coating_loss_angle": 3.0e-5,
        "coating_thickness": 4.5e-6,
        "beam_radius": 184.0e-6,
        "attachment_offset": None,
    },
    "environment": {
        "temperature": 300.0,
        "pressure": 1.0e-5,
        "gas_molecular_mass": 4.8e-26,
    },
    "cavity": {
        "round_trip_length": 0.1,
        "finesse": 5000.0,
        "wavelength": 1.064e-6,
        "probe_power": 2.0e-4,
        "trap_power": 0.1,
        "trap_detuning_in_kappa": 6.0,
        "coupling_efficiency": 1.0,
    },
    "grid": {"f_min": 10.0, "f_max": 1.0e4, "points": 2000},
    "ringdown": {"f0": 2.2, "bandwidth": 0.5, "bin_seconds": 20.0},
    "suspension": {"measured_pendulum_q": 2.0e6, "violin_modes": 2},
}

# numbers that may be set to null; a None preset value is one as well
_NULLABLE = ("material.measured_q", "suspension.measured_pendulum_q")


def _copy_sections(section: dict) -> dict:
    """A copy of section and of every dict in it; the other values, the
    preset's numbers, strings and None, are immutable and shared."""
    return {k: _copy_sections(v) if isinstance(v, dict) else v for k, v in section.items()}


def paper_preset() -> dict:
    """Deep copy of the built-in reference-experiment parameter set."""
    return _copy_sections(PAPER_PRESET)


# ---------------------------------------------------------------------------
# Validation and merging
# ---------------------------------------------------------------------------

def _check_leaf(location: str, preset: Any, value: Any) -> Any:
    """value, checked against the preset's own value at location: a str
    takes a string, an int an integer and a float a finite number; a
    None, or a location in _NULLABLE, also takes null."""
    if isinstance(preset, str):
        if not isinstance(value, str):
            raise ConfigError(f"{location}: expected a string, got {value!r}")
        return value
    if isinstance(value, str):
        # bare exponents like 2.0e6 or 4e-7 are strings to YAML; take them as numbers
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(preset, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ConfigError(f"{location}: expected an integer, got {value!r}")
        return int(value)
    if value is None and (preset is None or location in _NULLABLE):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{location}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{location}: expected a finite number, got {value!r}")
    return number


def _merge_section(target: dict, preset: dict, data: Any, prefix: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix or 'config'}: expected a mapping, got {data!r}")
    for key, value in data.items():
        location = f"{prefix}.{key}" if prefix else str(key)
        if key not in preset:
            raise ConfigError(f"unknown config key: {location}")
        if isinstance(preset[key], dict):
            _merge_section(target[key], preset[key], value, location)
        else:
            target[key] = _check_leaf(location, preset[key], value)


def merge_config(user: dict | None) -> dict:
    """Overlay a user mapping onto the preset, schema-validated."""
    merged = paper_preset()
    if user is not None:
        _merge_section(merged, PAPER_PRESET, user, "")
    return merged


def _load_yaml(source: Any, where: str) -> Any:
    """yaml.safe_load of a string or text file; malformed or too deeply
    nested YAML and non-UTF-8 bytes are config errors naming where they came from."""
    try:
        return yaml.safe_load(source)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{where}: malformed YAML: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: not UTF-8 text ({exc})") from exc


def _merge_path(raw: dict, path: str, value: Any) -> None:
    """Merge value at a dotted path, as the one-leaf mapping it spells."""
    for key in reversed(path.split(".")):
        value = {key: value}
    _merge_section(raw, PAPER_PRESET, value, "")


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one 'section.key=value' override in place, schema-checked."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like section.key=value, got {assignment!r}")
    path, text = assignment.split("=", 1)
    path = path.strip()
    _merge_path(raw, path, _load_yaml(text, path) if text.strip() != "" else None)


def set_numeric(raw: dict, path: str, value: float) -> None:
    """Set one numeric field by dotted path (sweep support)."""
    _merge_path(raw, path, float(value))


# ---------------------------------------------------------------------------
# Typed assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration, each section's object held once; model
    holds the material, fiber, test_mass, environment and suspension."""

    model: PendulumModel
    cavity: Cavity
    grid_f_min: float
    grid_f_max: float
    grid_points: int
    # the ringdown section as measure_q keyword arguments, read-only
    ringdown: Mapping[str, float] = field(hash=False)

    def grid(self) -> np.ndarray:
        return log_grid(self.grid_f_min, self.grid_f_max, self.grid_points)


# upper bounds on the counts: every spectrum holds grid.points values,
# and each violin mode adds about 24 us to every sub-SQL band
MAX_GRID_POINTS = 1_000_000
MAX_VIOLIN_MODES = 10_000


def build_config(raw: dict) -> ExperimentConfig:
    """Construct the typed model objects from a merged raw mapping."""
    material = dict(raw["material"])
    q_ref = material["surface_q_reference"]
    material["surface_q_reference"] = (q_ref["q"], q_ref["radius"])
    g = raw["grid"]
    try:
        fiber = Fiber(**raw["fiber"], material=Material(**material))
        test_mass = TestMass(**raw["test_mass"])
        env = Environment(**raw["environment"])
        cavity = Cavity(**raw["cavity"])
        model = PendulumModel(fiber, test_mass, env, **raw["suspension"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    ringdown = MappingProxyType({key: float(v) for key, v in raw["ringdown"].items()})
    if not g["f_min"] > 0 or not g["f_max"] > g["f_min"]:
        raise ConfigError(f"grid: need 0 < f_min < f_max, got [{g['f_min']}, {g['f_max']}]")
    if not 2 <= g["points"] <= MAX_GRID_POINTS:
        raise ConfigError(f"grid.points: need 2..{MAX_GRID_POINTS}, got {g['points']}")
    if not 0 <= model.violin_modes <= MAX_VIOLIN_MODES:
        raise ConfigError(
            f"suspension.violin_modes: need 0..{MAX_VIOLIN_MODES}, got {model.violin_modes}"
        )
    for key, value in ringdown.items():
        if not value > 0:
            raise ConfigError(f"ringdown.{key}: need > 0, got {value}")
    return ExperimentConfig(
        model=model,
        cavity=cavity,
        grid_f_min=float(g["f_min"]),
        grid_f_max=float(g["f_max"]),
        grid_points=int(g["points"]),
        ringdown=ringdown,
    )


def load_raw(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read (optional) YAML, merge onto the preset, apply overrides."""
    user = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = _load_yaml(fh, path)
        if user is not None and not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    raw = merge_config(user)
    for assignment in overrides or []:
        apply_override(raw, assignment)
    return raw


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    return build_config(load_raw(path, overrides))
