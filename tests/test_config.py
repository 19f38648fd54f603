"""Configuration schema, merging, overrides, and typed assembly."""

import dataclasses
import math

import numpy as np
import pytest

from pendq import (
    FUSED_SILICA,
    Cavity,
    ConfigError,
    Environment,
    Fiber,
    Material,
    TestMass,
)
from pendq import config as cfg


def test_preset_is_deep_copied():
    a = cfg.paper_preset()
    a["material"]["density"] = 1.0
    a["material"]["surface_q_reference"]["q"] = 1.0
    b = cfg.paper_preset()
    assert b["material"]["density"] == 2200.0
    assert b["material"]["surface_q_reference"]["q"] == 2.0e4


def test_merge_overrides_subset():
    raw = cfg.merge_config({"fiber": {"length": 0.08}})
    assert raw["fiber"]["length"] == 0.08
    assert raw["fiber"]["radius"] == 0.5e-6       # untouched sibling
    assert raw["test_mass"]["mass"] == 7.0e-6     # untouched section


def test_merge_nested_section():
    raw = cfg.merge_config({"material": {"surface_q_reference": {"q": 5.0e4}}})
    assert raw["material"]["surface_q_reference"]["q"] == 5.0e4
    assert raw["material"]["surface_q_reference"]["radius"] == 0.5e-6


def test_merge_reports_unknown_key_location():
    with pytest.raises(ConfigError, match="material.youngs_modulus"):
        cfg.merge_config({"material": {"youngs_modulus": 1.0}})
    with pytest.raises(ConfigError, match="unknown config key: typo"):
        cfg.merge_config({"typo": {}})


@pytest.mark.parametrize(
    "user",
    [
        {"fiber": {"length": "long"}},
        {"fiber": {"length": True}},              # bool is not a number here
        {"material": {"name": 3.0}},
        {"grid": {"points": 10.5}},
        {"grid": {"points": True}},
        {"fiber": "not-a-mapping"},
    ],
)
def test_merge_type_errors(user):
    with pytest.raises(ConfigError):
        cfg.merge_config(user)


def test_merge_integral_float_accepted_for_int():
    raw = cfg.merge_config({"grid": {"points": 100.0}})
    assert raw["grid"]["points"] == 100
    assert isinstance(raw["grid"]["points"], int)


def test_apply_override_values():
    raw = cfg.paper_preset()
    cfg.apply_override(raw, "fiber.radius=3e-07")
    assert raw["fiber"]["radius"] == 3e-07
    cfg.apply_override(raw, "material.name=sapphire")
    assert raw["material"]["name"] == "sapphire"
    cfg.apply_override(raw, "material.measured_q=null")
    assert raw["material"]["measured_q"] is None
    cfg.apply_override(raw, "material.surface_q_reference.q=1e5")
    assert raw["material"]["surface_q_reference"]["q"] == 1e5
    cfg.apply_override(raw, "grid.points=500")
    assert raw["grid"]["points"] == 500


@pytest.mark.parametrize(
    "assignment",
    [
        "fiber.radius",                 # no '='
        "fiber=0.1",                    # section, not a value
        "fiber.girth=0.1",              # unknown key
        "fiber.radius=thick",           # not a number
        "grid.points=2.5",              # not integral
    ],
)
def test_apply_override_rejects(assignment):
    raw = cfg.paper_preset()
    with pytest.raises(ConfigError):
        cfg.apply_override(raw, assignment)


def test_set_and_get_numeric():
    raw = cfg.paper_preset()
    cfg.set_numeric(raw, "environment.pressure", 2.5e-6)
    assert raw["environment"]["pressure"] == 2.5e-6
    assert cfg.get_numeric(raw, "environment.pressure") == 2.5e-6
    cfg.set_numeric(raw, "grid.points", 300.0)
    assert raw["grid"]["points"] == 300
    with pytest.raises(ConfigError):
        cfg.set_numeric(raw, "grid.points", 300.5)
    with pytest.raises(ConfigError):
        cfg.set_numeric(raw, "nope.nothing", 1.0)
    with pytest.raises(ConfigError):
        cfg.get_numeric(raw, "material.name")
    with pytest.raises(ConfigError):
        cfg.get_numeric(raw, "material.missing")


def test_build_config_preset():
    config = cfg.build_config(cfg.paper_preset())
    assert config.material.name == "fused silica"
    assert config.fiber.length == 0.05
    assert config.test_mass.mass == 7.0e-6
    assert config.env.temperature == 300.0
    assert config.cavity.finesse == 5000.0
    assert config.grid_points == 2000
    assert config.violin_mode_count == 2
    model = config.model
    assert model.measured_pendulum_q == 2.0e6
    grid = config.grid()
    assert grid.size == 2000
    assert math.isclose(grid[0], 10.0, rel_tol=1e-12)
    assert math.isclose(grid[-1], 1.0e4, rel_tol=1e-12)
    assert np.all(np.diff(np.log(grid)) > 0)


def test_build_config_wraps_domain_errors():
    raw = cfg.paper_preset()
    raw["fiber"]["radius"] = -1.0
    with pytest.raises(ConfigError):
        cfg.build_config(raw)


@pytest.mark.parametrize(
    "path, value",
    [
        ("grid.f_min", 0.0),
        ("grid.f_max", 5.0),          # below f_min
        ("grid.points", 1),
        ("suspension.violin_modes", -1),
        ("suspension.measured_pendulum_q", 0.0),
        ("ringdown.bandwidth", 0.0),
    ],
)
def test_build_config_range_checks(path, value):
    raw = cfg.paper_preset()
    section, key = path.split(".")
    raw[section][key] = value
    with pytest.raises(ConfigError):
        cfg.build_config(raw)


def test_load_raw_from_yaml(tmp_path):
    f = tmp_path / "exp.yaml"
    f.write_text("fiber:\n  length: 0.07\nenvironment:\n  temperature: 120.0\n")
    raw = cfg.load_raw(str(f))
    assert raw["fiber"]["length"] == 0.07
    assert raw["environment"]["temperature"] == 120.0
    assert raw["fiber"]["radius"] == 0.5e-6


def test_load_raw_empty_file_is_preset(tmp_path):
    f = tmp_path / "empty.yaml"
    f.write_text("")
    assert cfg.load_raw(str(f)) == cfg.paper_preset()


def test_load_raw_rejects_non_mapping(tmp_path):
    f = tmp_path / "list.yaml"
    f.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        cfg.load_raw(str(f))


def test_load_config_with_overrides(tmp_path):
    f = tmp_path / "exp.yaml"
    f.write_text("fiber:\n  length: 0.07\n")
    config = cfg.load_config(str(f), ["fiber.length=0.09", "grid.points=64"])
    assert config.fiber.length == 0.09   # override wins over file
    assert config.grid_points == 64


def test_experiment_config_frozen():
    config = cfg.load_config()
    with pytest.raises(AttributeError):
        config.grid_points = 5


@pytest.mark.parametrize(
    "section, cls, not_in_yaml",
    [
        ("material", Material, set()),
        ("fiber", Fiber, {"material"}),              # the material section
        ("test_mass", TestMass, {"density"}),        # mass-check aid, API only
        ("environment", Environment, set()),
        ("cavity", Cavity, set()),
    ],
)
def test_yaml_sections_match_dataclass_fields(section, cls, not_in_yaml):
    init_fields = {f.name for f in dataclasses.fields(cls) if f.init}
    assert set(cfg.PAPER_PRESET[section]) == init_fields - not_in_yaml


def test_nullable_fields():
    raw = cfg.paper_preset()
    cfg.apply_override(raw, "test_mass.attachment_offset=null")
    cfg.apply_override(raw, "material.measured_q=null")
    config = cfg.build_config(raw)
    assert config.material.measured_q is None
    assert config.test_mass.attachment_offset == config.test_mass.disk_radius
    with pytest.raises(ConfigError, match="expected a number"):
        cfg.apply_override(raw, "fiber.radius=null")


def test_preset_material_is_fused_silica():
    config = cfg.load_config()
    assert config.material == dataclasses.replace(FUSED_SILICA, measured_q=1.2e4)
