"""YAML configuration: schema, defaults, overrides, model builders.

The built-in preset describes the reference experiment this package
models: a 7 mg fused-silica disk on a 5 cm x 1 um-diameter silica
fiber read out by a finesse-5000 cavity.  User configs override any
subset of keys; unknown keys are rejected with their location.  The
preset doubles as the schema: each key's kind follows its preset value.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np
import yaml

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

_NUM = "number"
_INT = "integer"
_STR = "string"
_OPT_NUM = "number-or-null"

# numbers that may be set to null; a None preset value is one as well
_NULLABLE = ("material.measured_q",)


def _schema_of(section: dict[str, Any], prefix: str) -> dict[str, Any]:
    """Schema kinds from preset values: the preset is the schema."""
    schema: dict[str, Any] = {}
    for key, value in section.items():
        path = f"{prefix}.{key}"
        if isinstance(value, dict):
            schema[key] = _schema_of(value, path)
        elif value is None or path in _NULLABLE:
            schema[key] = _OPT_NUM
        else:
            schema[key] = {str: _STR, int: _INT, float: _NUM}[type(value)]
    return schema


SCHEMA: dict[str, dict[str, Any]] = {
    name: _schema_of(section, name) for name, section in PAPER_PRESET.items()
}


def paper_preset() -> dict:
    """Deep copy of the built-in reference-experiment parameter set."""
    return copy.deepcopy(PAPER_PRESET)


# ---------------------------------------------------------------------------
# Validation and merging
# ---------------------------------------------------------------------------

def _check_leaf(location: str, kind: str, value: Any) -> Any:
    if kind == _STR:
        if not isinstance(value, str):
            raise ConfigError(f"{location}: expected a string, got {value!r}")
        return value
    if kind == _OPT_NUM and value is None:
        return None
    if kind in (_NUM, _OPT_NUM):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{location}: expected a number, got {value!r}")
        return float(value)
    if kind == _INT:
        if isinstance(value, bool):
            raise ConfigError(f"{location}: expected an integer, got {value!r}")
        if isinstance(value, float) and value != int(value):
            raise ConfigError(f"{location}: expected an integer, got {value!r}")
        if not isinstance(value, (int, float)):
            raise ConfigError(f"{location}: expected an integer, got {value!r}")
        return int(value)
    raise AssertionError(f"unhandled schema kind {kind}")


def _merge_section(target: dict, schema: dict, data: Any, prefix: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix or 'config'}: expected a mapping, got {data!r}")
    for key, value in data.items():
        location = f"{prefix}.{key}" if prefix else str(key)
        if key not in schema:
            raise ConfigError(f"unknown config key: {location}")
        kind = schema[key]
        if isinstance(kind, dict):
            _merge_section(target[key], kind, value, location)
        else:
            target[key] = _check_leaf(location, kind, value)


def merge_config(user: dict | None) -> dict:
    """Overlay a user mapping onto the preset, schema-validated."""
    merged = paper_preset()
    if user is not None:
        _merge_section(merged, SCHEMA, user, "")
    return merged


def _navigate(raw: dict, path: str) -> tuple[dict, str, Any]:
    """Resolve a dotted path to (parent mapping, final key, schema kind)."""
    keys = path.split(".")
    schema: Any = SCHEMA
    node = raw
    for i, key in enumerate(keys):
        if not isinstance(schema, dict) or key not in schema:
            raise ConfigError(f"unknown config key: {path}")
        schema = schema[key]
        if i < len(keys) - 1:
            node = node[key]
    if isinstance(schema, dict):
        raise ConfigError(f"{path} is a section, not a value")
    return node, keys[-1], schema


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one 'section.key=value' override in place, schema-checked."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like section.key=value, got {assignment!r}")
    path, text = assignment.split("=", 1)
    path = path.strip()
    value = yaml.safe_load(text) if text.strip() != "" else None
    node, key, kind = _navigate(raw, path)
    if isinstance(value, str) and kind in (_NUM, _OPT_NUM, _INT):
        # bare exponents like 3e-07 are strings to YAML; take them as numbers
        try:
            value = float(value)
        except ValueError:
            pass
    node[key] = _check_leaf(path, kind, value)


def set_numeric(raw: dict, path: str, value: float) -> None:
    """Set one numeric field by dotted path (sweep support)."""
    node, key, kind = _navigate(raw, path)
    node[key] = _check_leaf(path, kind, float(value))


def get_numeric(raw: dict, path: str) -> float:
    node: Any = raw
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key: {path}")
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path} is not numeric")
    return float(node)


# ---------------------------------------------------------------------------
# Typed assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with the physics objects built from it."""

    raw: dict
    material: Material
    fiber: Fiber
    test_mass: TestMass
    env: Environment
    cavity: Cavity
    grid_f_min: float
    grid_f_max: float
    grid_points: int
    ringdown_f0: float
    ringdown_bandwidth: float
    ringdown_bin_seconds: float
    measured_pendulum_q: float
    violin_mode_count: int

    @property
    def model(self) -> PendulumModel:
        return PendulumModel(
            fiber=self.fiber,
            test_mass=self.test_mass,
            env=self.env,
            measured_pendulum_q=self.measured_pendulum_q,
        )

    def grid(self) -> np.ndarray:
        from .budget import log_grid

        return log_grid(self.grid_f_min, self.grid_f_max, self.grid_points)


def build_config(raw: dict) -> ExperimentConfig:
    """Construct the typed model objects from a merged raw mapping."""
    material = dict(raw["material"])
    q_ref = material["surface_q_reference"]
    material["surface_q_reference"] = (q_ref["q"], q_ref["radius"])
    try:
        material = Material(**material)
        fiber = Fiber(**raw["fiber"], material=material)
        test_mass = TestMass(**raw["test_mass"])
        env = Environment(**raw["environment"])
        cavity = Cavity(**raw["cavity"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    g, r, s = raw["grid"], raw["ringdown"], raw["suspension"]
    if not g["f_min"] > 0 or not g["f_max"] > g["f_min"]:
        raise ConfigError(f"grid: need 0 < f_min < f_max, got [{g['f_min']}, {g['f_max']}]")
    if g["points"] < 2:
        raise ConfigError(f"grid.points: need >= 2, got {g['points']}")
    if s["violin_modes"] < 0:
        raise ConfigError(f"suspension.violin_modes: need >= 0, got {s['violin_modes']}")
    if not s["measured_pendulum_q"] > 0:
        raise ConfigError(
            f"suspension.measured_pendulum_q: need > 0, got {s['measured_pendulum_q']}"
        )
    for key in ("f0", "bandwidth", "bin_seconds"):
        if not r[key] > 0:
            raise ConfigError(f"ringdown.{key}: need > 0, got {r[key]}")
    return ExperimentConfig(
        raw=raw,
        material=material,
        fiber=fiber,
        test_mass=test_mass,
        env=env,
        cavity=cavity,
        grid_f_min=float(g["f_min"]),
        grid_f_max=float(g["f_max"]),
        grid_points=int(g["points"]),
        ringdown_f0=float(r["f0"]),
        ringdown_bandwidth=float(r["bandwidth"]),
        ringdown_bin_seconds=float(r["bin_seconds"]),
        measured_pendulum_q=float(s["measured_pendulum_q"]),
        violin_mode_count=int(s["violin_modes"]),
    )


def load_raw(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read (optional) YAML, merge onto the preset, apply overrides."""
    user = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = yaml.safe_load(fh)
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    raw = merge_config(user)
    for assignment in overrides or []:
        apply_override(raw, assignment)
    return raw


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    return build_config(load_raw(path, overrides))
