import math

import pytest
from hypothesis import given, strategies as st

from odfkit import (
    ATOMIC_MASS_UNIT,
    BERYLLIUM_9_MASS,
    HBAR,
    OdfDrive,
    ThermalState,
    TrapIonConfig,
    detuning,
    ground_state_extent,
    thermal_extent_sq,
)
from odfkit.constants import TWO_PI


def test_codata_constants():
    assert HBAR == 1.054571817e-34
    assert ATOMIC_MASS_UNIT == 1.66053906660e-27
    assert BERYLLIUM_9_MASS == pytest.approx(9.012 * ATOMIC_MASS_UNIT, rel=1e-15)


def test_trap_defaults():
    cfg = TrapIonConfig()
    assert cfg.ion_mass == BERYLLIUM_9_MASS
    assert cfg.omega_com == pytest.approx(TWO_PI * 1.1e6, rel=1e-15)
    assert cfg.n_ions == 125
    assert cfg.crystal_radius == 150e-6


def test_ground_state_extent_frozen_value():
    # z0 = sqrt(hbar / (2 M omega_com)) at the defaults
    assert ground_state_extent(TrapIonConfig()) == pytest.approx(2.2578842e-8, rel=1e-6)


def test_thermal_extent_is_z0sq_times_occupation():
    cfg = TrapIonConfig()
    z0 = ground_state_extent(cfg)
    assert thermal_extent_sq(cfg, ThermalState(n_bar=0.0)) == pytest.approx(z0 * z0, rel=1e-14)
    assert thermal_extent_sq(cfg, ThermalState(n_bar=1.27)) == pytest.approx(
        z0 * z0 * (2 * 1.27 + 1), rel=1e-14)


@given(st.floats(min_value=0.0, max_value=1e4))
def test_thermal_extent_nonnegative_and_monotone(n_bar):
    cfg = TrapIonConfig()
    low = thermal_extent_sq(cfg, ThermalState(n_bar=n_bar))
    high = thermal_extent_sq(cfg, ThermalState(n_bar=n_bar + 1.0))
    assert 0 < low < high


def test_detuning_is_signed():
    cfg = TrapIonConfig()
    assert detuning(OdfDrive(mu=cfg.omega_com + 100.0), cfg) == pytest.approx(100.0)
    assert detuning(OdfDrive(mu=cfg.omega_com - 100.0), cfg) == pytest.approx(-100.0)
    assert detuning(OdfDrive(mu=cfg.omega_com), cfg) == 0.0


@pytest.mark.parametrize("kwargs", [
    {"ion_mass": 0.0},
    {"ion_mass": -1.0},
    {"omega_com": 0.0},
    {"n_ions": 0},
    {"crystal_radius": -1e-6},
])
def test_trap_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        TrapIonConfig(**kwargs)


def test_thermal_state_rejects_negative():
    with pytest.raises(ValueError):
        ThermalState(n_bar=-0.1)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf])
def test_thermal_state_rejects_non_finite(n_bar):
    with pytest.raises(ValueError, match="finite"):
        ThermalState(n_bar=n_bar)


def test_drive_invariants():
    with pytest.raises(ValueError):
        OdfDrive(tau=0.0)
    with pytest.raises(ValueError):
        OdfDrive(gamma=-1.0)


def test_gamma_composition_consistency():
    # gamma = (raman + elastic) / 2 when both partial rates are given
    drive = OdfDrive(gamma=None, gamma_raman=150.0, gamma_elastic=50.0)
    assert drive.gamma == pytest.approx(100.0, rel=1e-14)
    OdfDrive(gamma=100.0, gamma_raman=150.0, gamma_elastic=50.0)  # consistent
    with pytest.raises(ValueError):
        OdfDrive(gamma=90.0, gamma_raman=150.0, gamma_elastic=50.0)


def test_gamma_required_without_partials():
    with pytest.raises(ValueError):
        OdfDrive(gamma=None)
