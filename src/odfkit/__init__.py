"""Toolkit for tunable coherent vs incoherent optical-dipole-force interactions
in planar Penning-trap ion crystals: beam geometry, coupling strengths,
experiment lineshapes, synthetic data, and parameter estimation."""

__version__ = "0.1.0"

from .constants import ATOMIC_MASS_UNIT, BERYLLIUM_9_MASS, HBAR
from .core import (
    OdfDrive,
    ThermalState,
    TrapIonConfig,
    detuning,
    ground_state_extent,
    thermal_extent_sq,
)
from .geometry import (
    ActuatorBudget,
    ActuatorState,
    AngleRangeError,
    BeamGeometry,
    GeometryInfeasibleError,
    MountGeometry,
    actuators_for_angle,
    angle_from_actuators,
    delta_k,
    effective_wavelength,
    misalignment_phase,
    repeatability_to_angle_error,
)
from .interactions import (
    CHI_TO_JBAR,
    InteractionStrengths,
    LoopPhases,
    ResonanceSingularityError,
    force_magnitude,
    force_turnover_angle,
    gamma_decay_lineshape,
    j_bar,
    loop_phases,
    precession_lineshape,
    thermometry_lineshape,
    thermometry_model,
)
from .simulate import (
    DriftModel,
    PathNoiseModel,
    ScanDataset,
    drift_probe_signal,
    path_noise_phase_rms,
    simulate_angle_drift,
    simulate_gamma_decay,
    simulate_path_noise,
    simulate_precession,
    simulate_thermometry,
)
from .fitting import (
    F0Estimate,
    FitInputError,
    FitResult,
    GammaDecayEstimator,
    PrecessionEstimator,
    ThermometryEstimator,
    f0_from_jbar,
    fit_far_detuned_gamma,
    fit_precession,
    fit_thermometry,
    golden_section_max,
    optimize_theta,
    weighted_f0,
)
from .configio import ConfigError, Scenario, load_config
