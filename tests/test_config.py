"""Configuration schema, merging, overrides, and typed assembly."""

import copy
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from pendq import (
    FUSED_SILICA,
    Cavity,
    ConfigError,
    Environment,
    Fiber,
    Material,
    PendulumModel,
    TestMass,
    log_grid,
    measure_q,
)
from pendq import config as cfg


def test_preset_is_deep_copied():
    a = cfg.paper_preset()
    a["material"]["density"] = 1.0
    a["material"]["surface_q_reference"]["q"] = 1.0
    b = cfg.paper_preset()
    assert b["material"]["density"] == 2200.0
    assert b["material"]["surface_q_reference"]["q"] == 2.0e4


def _dicts(section: dict) -> list[dict]:
    return [section] + [d for v in section.values() if isinstance(v, dict) for d in _dicts(v)]


def test_preset_copy_equals_a_deepcopy_and_shares_no_dict():
    copied = cfg.paper_preset()
    assert copied == copy.deepcopy(cfg.PAPER_PRESET)
    assert not {id(d) for d in _dicts(copied)} & {id(d) for d in _dicts(cfg.PAPER_PRESET)}
    # what the copy shares is immutable
    leaves = [v for d in _dicts(copied) for v in d.values() if not isinstance(v, dict)]
    assert {type(v) for v in leaves} <= {str, int, float, type(None)}


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
        "grid.f_max=.inf",              # not finite
        "environment.temperature=.nan",
        "material.measured_q=-.inf",    # nullable, but not finite
        "test_mass.attachment_offset=.inf",
        "fiber.length=1e400",           # a float literal beyond the float range
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
    cfg.set_numeric(raw, "grid.points", 300.0)
    assert raw["grid"]["points"] == 300
    with pytest.raises(ConfigError):
        cfg.set_numeric(raw, "grid.points", 300.5)
    with pytest.raises(ConfigError):
        cfg.set_numeric(raw, "nope.nothing", 1.0)


def test_build_config_preset():
    config = cfg.build_config(cfg.paper_preset())
    assert config.model.fiber.material.name == "fused silica"
    assert config.model.fiber.length == 0.05
    assert config.model.test_mass.mass == 7.0e-6
    assert config.model.env.temperature == 300.0
    assert config.cavity.finesse == 5000.0
    assert config.grid_points == 2000
    assert config.model.violin_modes == 2
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
    assert config.model.fiber.length == 0.09   # override wins over file
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
    assert config.model.fiber.material.measured_q is None
    assert config.model.test_mass.attachment_offset == config.model.test_mass.disk_radius
    with pytest.raises(ConfigError, match="expected a number"):
        cfg.apply_override(raw, "fiber.radius=null")


def test_preset_material_is_fused_silica():
    config = cfg.load_config()
    assert config.model.fiber.material == dataclasses.replace(FUSED_SILICA, measured_q=1.2e4)


def test_bare_exponents_are_numbers(tmp_path):
    f = tmp_path / "exp.yaml"
    f.write_text("fiber:\n  radius: 4e-7\nsuspension:\n  measured_pendulum_q: 2.0e6\n"
                 "grid:\n  points: 1e3\n")
    raw = cfg.load_raw(str(f))
    assert raw["fiber"]["radius"] == 4e-7
    assert raw["suspension"]["measured_pendulum_q"] == 2.0e6
    assert raw["grid"]["points"] == 1000
    assert isinstance(raw["grid"]["points"], int)
    with pytest.raises(ConfigError, match="material.name: expected a string"):
        cfg.merge_config({"material": {"name": 1e3}})


def test_override_with_a_section_mapping():
    raw = cfg.paper_preset()
    cfg.apply_override(raw, "fiber={radius: 4e-7, length: 0.02}")
    assert raw["fiber"] == {"radius": 4e-7, "length": 0.02}
    with pytest.raises(ConfigError, match="unknown config key: fiber.girth"):
        cfg.apply_override(raw, "fiber={girth: 1}")


def test_config_is_hashable():
    assert hash(cfg.load_config()) == hash(cfg.load_config())
    assert cfg.load_config() == cfg.load_config()


def test_model_is_built_once():
    config = cfg.load_config(None, ["suspension.measured_pendulum_q=3e6"])
    assert config.model is config.model
    assert config.model.measured_pendulum_q == 3e6
    with pytest.raises(ConfigError, match="measured_pendulum_q must be > 0"):
        cfg.load_config(None, ["suspension.measured_pendulum_q=0"])


def test_ringdown_section_is_read_only():
    config = cfg.load_config(None, ["ringdown.f0=2.3"])
    assert dict(config.ringdown) == {"f0": 2.3, "bandwidth": 0.5, "bin_seconds": 20.0}
    with pytest.raises(TypeError):
        config.ringdown["f0"] = 1.0


def test_each_section_holds_one_consumers_parameters():
    def init_fields(cls):
        return {f.name for f in dataclasses.fields(cls) if f.init}

    consumers = {
        "material": init_fields(Material),
        "fiber": init_fields(Fiber) - {"material"},
        "test_mass": init_fields(TestMass) - {"density"},
        "environment": init_fields(Environment),
        "cavity": init_fields(Cavity),
        "suspension": init_fields(PendulumModel) - {"fiber", "test_mass", "env"},
        "grid": set(inspect.signature(log_grid).parameters),
        "ringdown": set(inspect.signature(measure_q).parameters)
        - {"traces", "refine"},
    }
    assert {name: set(section) for name, section in cfg.PAPER_PRESET.items()} == consumers


# ---------------------------------------------------------------------------
# each leaf's kind, and the message a value of another kind gets
# ---------------------------------------------------------------------------

def _leaves(section, prefix=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


LEAF_PATHS = list(_leaves(cfg.PAPER_PRESET))
# every other leaf is a finite number
KINDS = {
    "material.name": "string",
    "grid.points": "integer",
    "suspension.violin_modes": "integer",
    "material.measured_q": "number-or-null",
    "suspension.measured_pendulum_q": "number-or-null",
    "test_mass.attachment_offset": "number-or-null",
}

# (value, what follows "<path>: expected ") for each kind
_NOT_A_NUMBER = [
    ("thick", "a number, got 'thick'"),
    (True, "a number, got True"),
    ([1.0], "a number, got [1.0]"),
    ({"a": 1}, "a number, got {'a': 1}"),
    (math.inf, "a finite number, got inf"),
    ("nan", "a finite number, got nan"),
    ("-1e400", "a finite number, got -inf"),
    (10**400, f"a finite number, got {10**400!r}"),
]
WRONG_KIND = {
    "string": [
        (1e3, "a string, got 1000.0"),
        (None, "a string, got None"),
        (True, "a string, got True"),
        (["a"], "a string, got ['a']"),
    ],
    "integer": [
        (2.5, "an integer, got 2.5"),
        ("2.5", "an integer, got 2.5"),
        (True, "an integer, got True"),
        ("many", "an integer, got 'many'"),
        (None, "an integer, got None"),
        ([1], "an integer, got [1]"),
        (math.inf, "an integer, got inf"),
    ],
    "number": [*_NOT_A_NUMBER, (None, "a number, got None")],
    "number-or-null": _NOT_A_NUMBER,
}
# (value, the merged value) for each kind
RIGHT_KIND = {
    "string": [("x", "x")],
    "integer": [(100.0, 100), ("1e3", 1000), (7, 7)],
    "number": [(3, 3.0), ("4e-7", 4e-7), (2.5, 2.5)],
    "number-or-null": [(3, 3.0), (None, None)],
}


def _nest(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _lookup(raw, path):
    for key in path.split("."):
        raw = raw[key]
    return raw


def test_leaf_kinds_cover_the_preset():
    assert set(KINDS) <= set(LEAF_PATHS)
    assert len(LEAF_PATHS) == len(set(LEAF_PATHS)) == 40


@pytest.mark.parametrize("path", LEAF_PATHS)
def test_each_leaf_refuses_another_kind_with_its_message(path):
    for value, expected in WRONG_KIND[KINDS.get(path, "number")]:
        with pytest.raises(ConfigError) as exc:
            cfg.merge_config(_nest(path, value))
        assert str(exc.value) == f"{path}: expected {expected}"


@pytest.mark.parametrize("path", LEAF_PATHS)
def test_each_leaf_takes_its_kind(path):
    for value, merged in RIGHT_KIND[KINDS.get(path, "number")]:
        got = _lookup(cfg.merge_config(_nest(path, value)), path)
        assert got == merged and type(got) is type(merged)


@pytest.mark.parametrize("path", LEAF_PATHS)
def test_null_is_taken_at_exactly_the_nullable_leaves(path):
    raw = cfg.paper_preset()
    if KINDS.get(path) == "number-or-null":
        # also after a number was set there
        cfg.apply_override(raw, f"{path}=1.5")
        cfg.apply_override(raw, f"{path}=null")
        assert _lookup(raw, path) is None
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
            cfg.apply_override(raw, f"{path}=null")
