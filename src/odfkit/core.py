"""Shared configuration types for the trap, the drive, and the thermal state.

The trap holds a planar crystal of N ions whose axial center-of-mass (COM)
mode at omega_com is the motional bus for the spin-dependent optical dipole
force.  The ground-state wavepacket size z0 = sqrt(hbar / (2 M omega_com))
and its thermal extension <z^2> = z0^2 (2 nbar + 1) set the Debye-Waller
suppression of the force, so they live here alongside the types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR


@dataclass(frozen=True)
class TrapIonConfig:
    """Physical substrate: ion species, COM mode and crystal size."""

    ion_mass: float  # kg
    omega_com: float  # rad/s
    n_ions: int
    crystal_radius: float  # m

    def __post_init__(self):
        if self.ion_mass <= 0:
            raise ValueError(f"ion_mass must be > 0, got {self.ion_mass}")
        if self.omega_com <= 0:
            raise ValueError(f"omega_com must be > 0, got {self.omega_com}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.crystal_radius < 0:
            raise ValueError(f"crystal_radius must be >= 0, got {self.crystal_radius}")


@dataclass(frozen=True)
class ThermalState:
    """Mean phonon occupation of the COM mode (proxy for effective temperature)."""

    n_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.n_bar) and self.n_bar >= 0):
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


@dataclass(frozen=True)
class OdfDrive:
    """Applied ODF interaction parameters.

    delta_ac is the AC-Stark coupling rate per beam pair (a calibration
    input, not derived from optical power), mu the beat frequency of the
    two beams, tau the per-arm duration of the spin-echo sequence, and
    gamma the total off-resonant scattering decoherence rate
    Gamma = (Gamma_Raman + Gamma_elastic) / 2; a config given the two
    parts composes it (configio.build_scenario).  No field has a default:
    load_config().drive, 2 kHz above the COM mode, is the configured one.
    """

    delta_ac: float  # rad/s
    mu: float  # rad/s
    tau: float  # s
    gamma: float  # 1/s

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _checked(name: str, value):
    """value, unless it is a float that left the finite range: then an ArithmeticError.

    A scalar result computes in Python floats, whose * and / overflow to inf
    without a signal; an array passes unchecked (the commands run array
    arithmetic under np.errstate(..., "raise")).
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"{name} evaluates to {value}")
    return value


def detuning(drive: OdfDrive, cfg: TrapIonConfig) -> float:
    """Signed detuning delta = mu - omega_com of the beat note from the COM mode."""
    return drive.mu - cfg.omega_com


def ground_state_extent(cfg: TrapIonConfig) -> float:
    """Ground-state wavepacket size z0 = sqrt(hbar / (2 M omega_com)) in meters."""
    return math.sqrt(HBAR / (2.0 * cfg.ion_mass * cfg.omega_com))


def thermal_extent_sq(cfg: TrapIonConfig, state: ThermalState) -> float:
    """Thermal mean-square axial extent <z^2> = z0^2 (2 nbar + 1) in m^2."""
    z0 = ground_state_extent(cfg)
    return _checked("the thermal extent <z^2>", z0 * z0 * (2.0 * state.n_bar + 1.0))
