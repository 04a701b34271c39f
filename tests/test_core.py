import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from odfkit.configio import load_config
from odfkit.constants import ATOMIC_MASS_UNIT, HBAR, TWO_PI
from odfkit.core import ThermalState, detuning, ground_state_extent, thermal_extent_sq

SCN = load_config()  # the default config


def test_codata_constants():
    assert HBAR == 1.054571817e-34
    assert ATOMIC_MASS_UNIT == 1.66053906660e-27


def test_trap_defaults():
    cfg = SCN.trap
    assert cfg.ion_mass == 9.012 * ATOMIC_MASS_UNIT  # beryllium-9
    assert cfg.omega_com == pytest.approx(TWO_PI * 1.1e6, rel=1e-15)
    assert cfg.n_ions == 125
    assert cfg.crystal_radius == 150e-6


def test_ground_state_extent_frozen_value():
    # z0 = sqrt(hbar / (2 M omega_com)) at the defaults
    assert ground_state_extent(SCN.trap) == pytest.approx(2.2578842e-8, rel=1e-6)


def test_thermal_extent_is_z0sq_times_occupation():
    cfg = SCN.trap
    z0 = ground_state_extent(cfg)
    assert thermal_extent_sq(cfg, ThermalState(n_bar=0.0)) == pytest.approx(z0 * z0, rel=1e-14)
    assert thermal_extent_sq(cfg, ThermalState(n_bar=1.27)) == pytest.approx(
        z0 * z0 * (2 * 1.27 + 1), rel=1e-14)


@given(st.floats(min_value=0.0, max_value=1e4))
def test_thermal_extent_nonnegative_and_monotone(n_bar):
    cfg = SCN.trap
    low = thermal_extent_sq(cfg, ThermalState(n_bar=n_bar))
    high = thermal_extent_sq(cfg, ThermalState(n_bar=n_bar + 1.0))
    assert 0 < low < high


def test_detuning_is_signed():
    cfg = SCN.trap
    assert detuning(replace(SCN.drive, mu=cfg.omega_com + 100.0), cfg) == pytest.approx(100.0)
    assert detuning(replace(SCN.drive, mu=cfg.omega_com - 100.0), cfg) == pytest.approx(-100.0)
    assert detuning(replace(SCN.drive, mu=cfg.omega_com), cfg) == 0.0


@pytest.mark.parametrize("kwargs", [
    {"ion_mass": 0.0},
    {"ion_mass": -1.0},
    {"omega_com": 0.0},
    {"n_ions": 0},
    {"crystal_radius": -1e-6},
])
def test_trap_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        replace(SCN.trap, **kwargs)


def test_thermal_state_rejects_negative():
    with pytest.raises(ValueError):
        ThermalState(n_bar=-0.1)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf])
def test_thermal_state_rejects_non_finite(n_bar):
    with pytest.raises(ValueError, match="finite"):
        ThermalState(n_bar=n_bar)


def test_drive_invariants():
    with pytest.raises(ValueError):
        replace(SCN.drive, tau=0.0)
    with pytest.raises(ValueError):
        replace(SCN.drive, gamma=-1.0)
