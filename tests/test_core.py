"""Constants, materials, geometry types, and their validation."""

import math
import warnings

import mpmath as mp
import pytest

from pendq import (
    CONST,
    FUSED_SILICA,
    ConfigError,
    DegenerateFitError,
    DomainError,
    Environment,
    Fiber,
    FitError,
    InsufficientDataError,
    Material,
    ShapeError,
    TestMass,
    thermal_decoherence_rate,
    zero_point_motion,
)


def test_constants_codata_values():
    assert CONST.k_B == 1.380649e-23
    assert CONST.hbar == 1.054571817e-34
    assert CONST.c == 2.99792458e8
    assert CONST.g == 9.80665


def test_exception_hierarchy():
    # input problems are ValueErrors, fit problems are RuntimeErrors
    assert issubclass(DomainError, ValueError)
    assert issubclass(ConfigError, ValueError)
    assert issubclass(ShapeError, ValueError)
    assert issubclass(FitError, RuntimeError)
    assert issubclass(InsufficientDataError, FitError)
    assert issubclass(DegenerateFitError, FitError)


# ---------------------------------------------------------------------------
# Material
# ---------------------------------------------------------------------------

def test_fused_silica_defaults():
    assert FUSED_SILICA.young_modulus == 72e9
    assert FUSED_SILICA.shear_modulus == 31e9
    assert FUSED_SILICA.density == 2200.0
    assert FUSED_SILICA.poisson_ratio == 0.17
    assert FUSED_SILICA.surface_q_reference == (2.0e4, 0.5e-6)
    assert FUSED_SILICA.measured_q is None
    assert FUSED_SILICA.thermal_conductivity is not None


@pytest.mark.parametrize(
    "field,value",
    [
        ("young_modulus", 0.0),
        ("young_modulus", -1e9),
        ("shear_modulus", 0.0),
        ("density", -1.0),
        ("bulk_loss_angle", 0.0),
        ("poisson_ratio", 0.5),
        ("poisson_ratio", -0.1),
        ("poisson_ratio", math.nan),
        ("measured_q", 0.0),
        ("thermal_expansion", -1e-7),
    ],
)
def test_material_rejects_bad_field(field, value):
    kwargs = dict(
        name="x",
        young_modulus=7e10,
        shear_modulus=3e10,
        density=2000.0,
        poisson_ratio=0.2,
        bulk_loss_angle=1e-5,
    )
    kwargs[field] = value
    with pytest.raises(DomainError):
        Material(**kwargs)


def test_material_rejects_bad_surface_anchor():
    with pytest.raises(DomainError):
        Material(
            name="x",
            young_modulus=7e10,
            shear_modulus=3e10,
            density=2000.0,
            poisson_ratio=0.2,
            bulk_loss_angle=1e-5,
            surface_q_reference=(-1.0, 1e-6),
        )


def test_material_is_frozen():
    with pytest.raises(AttributeError):
        FUSED_SILICA.density = 1.0


# ---------------------------------------------------------------------------
# Fiber
# ---------------------------------------------------------------------------

def test_fiber_geometry():
    fiber = Fiber(length=0.05, radius=0.5e-6)
    assert math.isclose(fiber.cross_section, math.pi * 0.25e-12, rel_tol=1e-15)
    assert math.isclose(
        fiber.linear_density, 2200.0 * math.pi * 0.25e-12, rel_tol=1e-15
    )


def test_fiber_aspect_ratio_warning():
    with pytest.warns(UserWarning, match="aspect ratio"):
        Fiber(length=9e-5, radius=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Fiber(length=0.05, radius=0.5e-6)  # l/r = 1e5, no warning


def test_fiber_rejects_nonpositive_dimensions():
    with pytest.raises(DomainError):
        Fiber(length=0.0, radius=1e-6)
    with pytest.raises(DomainError):
        Fiber(length=0.05, radius=-1e-6)


# ---------------------------------------------------------------------------
# TestMass
# ---------------------------------------------------------------------------

def test_test_mass_moments_of_inertia():
    tm = TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4)
    # diameter axis through the CM plus parallel-axis shift to the rim pivot
    i_cm = 7e-6 * ((1.5e-3) ** 2 / 4 + (4.5e-4) ** 2 / 12)
    assert math.isclose(
        tm.pivot_moment_of_inertia, i_cm + 7e-6 * (1.5e-3) ** 2, rel_tol=1e-15
    )
    assert math.isclose(
        tm.spin_moment_of_inertia, 7e-6 * (1.5e-3) ** 2 / 2, rel_tol=1e-15
    )


def test_attachment_offset_defaults_to_rim():
    tm = TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4)
    assert tm.attachment_offset == 1.5e-3
    tm2 = TestMass(
        mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, attachment_offset=1e-3
    )
    assert tm2.attachment_offset == 1e-3


def test_density_consistency_warning():
    # 7 mg disk of these dimensions really is ~7e-6 kg; a wild density warns
    with pytest.warns(UserWarning, match="differs from density"):
        TestMass(
            mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, density=10000.0
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, density=2200.0)


def test_test_mass_validation():
    with pytest.raises(DomainError):
        TestMass(mass=0.0, disk_radius=1.5e-3, thickness=4.5e-4)
    with pytest.raises(DomainError):
        TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, beam_radius=0.0)
    with pytest.raises(DomainError):
        TestMass(
            mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, substrate_loss_angle=-1.0
        )


# ---------------------------------------------------------------------------
# Environment and free functions
# ---------------------------------------------------------------------------

def test_environment_defaults_and_validation():
    env = Environment()
    assert env.temperature == 300.0
    assert env.pressure == 0.0
    with pytest.raises(DomainError):
        Environment(temperature=0.0)
    with pytest.raises(DomainError):
        Environment(pressure=-1.0)
    with pytest.raises(DomainError):
        Environment(gas_molecular_mass=0.0)


def test_zero_point_motion_high_precision():
    mp.mp.dps = 40
    m, w = 7e-6, 2 * math.pi * 2.2
    expected = mp.sqrt(mp.mpf("1.054571817e-34") / (2 * mp.mpf("7e-6") * 2 * mp.pi * mp.mpf("2.2")))
    assert math.isclose(zero_point_motion(m, w), float(expected), rel_tol=1e-14)
    with pytest.raises(DomainError):
        zero_point_motion(0.0, w)
    with pytest.raises(DomainError):
        zero_point_motion(m, -1.0)


def test_thermal_decoherence_rate():
    assert math.isclose(
        thermal_decoherence_rate(300.0), 39276101762161.92, rel_tol=1e-12
    )
    # linear in T
    assert math.isclose(
        thermal_decoherence_rate(600.0),
        2 * thermal_decoherence_rate(300.0),
        rel_tol=1e-15,
    )
    with pytest.raises(DomainError):
        thermal_decoherence_rate(0.0)


def test_construction_warnings_name_the_caller():
    with pytest.warns(UserWarning, match="aspect ratio") as record:
        Fiber(0.05, 1e-3)
    assert record[0].filename == __file__
    with pytest.warns(UserWarning, match="differs from density") as record:
        TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, density=1e4)
    assert record[0].filename == __file__


def test_substrate_loss_angle_must_be_positive():
    # the mirror thermal noise divides by it
    with pytest.raises(DomainError, match=r"substrate_loss_angle must be > 0, got 0\.0"):
        TestMass(mass=7e-6, disk_radius=1.5e-3, thickness=4.5e-4, substrate_loss_angle=0.0)
