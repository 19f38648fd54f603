"""Suspended-pendulum optomechanics toolkit.

Models a milligram-scale mirror hung from a thin fiber and read out by
an optical cavity: dissipation-diluted suspension modes, thermal and
quantum displacement-noise budgets against the free-mass SQL, optical
springs and the stiffened effective oscillator, and the ring-down
pipeline that extracts Q from decaying time series.
"""

from .core import (
    CONST,
    FUSED_SILICA,
    ConfigError,
    Constants,
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
from .suspension import (
    LossBudget,
    Mode,
    ModeKind,
    PendulumModel,
    QfReport,
    dilution_factor,
    diluted_pendulum_q,
    gas_damping_gamma,
    gas_limited_q,
    ideal_pendulum_q,
    material_loss_budget,
    material_q,
    measurement_band_edge,
    measurement_band_edge_spectrum,
    pendulum_frequency,
    pendulum_mode,
    pitch_frequency,
    pitch_mode,
    qf_requirement,
    structural_gamma,
    surface_limited_q,
    suspension_modes,
    thermoelastic_loss_angle,
    violin_modes,
    yaw_frequency,
)
from .cavity import (
    Cavity,
    EffectiveOscillator,
    RequirementReport,
    cavity_kappa,
    circulating_power,
    effective_oscillator,
    effective_requirements,
    optical_rigidity,
    radiation_pressure_force_psd,
    shot_noise_rin,
    stiffened_oscillator,
)
from .budget import (
    Budget,
    NoiseSpectrum,
    log_grid,
    mirror_thermal_asd,
    model_components,
    quantum_noise_asd,
    spectra_to_csv,
    spectra_to_json,
    sql_asd,
    sub_sql_band,
    suspension_thermal_asd,
    thermal_sub_sql_band,
    total_budget,
)
from .ringdown import (
    BinnedEnvelope,
    RingdownFit,
    RingdownTrace,
    bandpass,
    bin_average,
    envelope,
    fit_exponential,
    fit_to_json,
    measure_q,
    synthesize_ringdown,
    trace_from_csv,
    trace_to_csv,
)
from .config import ExperimentConfig, load_config, paper_preset

__version__ = "0.1.0"
