import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from odfkit.configio import load_config
from odfkit.constants import ATOMIC_MASS_UNIT, HBAR, TWO_PI
from odfkit.core import (
    ThermalState,
    detuning,
    fields,
    ground_state_extent,
    replace,
    thermal_extent_sq,
)
from odfkit.csvio import ScanDataset, Series
from odfkit.fitting import FitResult
from odfkit.geometry import ActuatorState
from odfkit.interactions import InteractionStrengths

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


# one record of each of odfkit's 11 record types, and whether its fields hash
RECORDS = [
    (SCN.trap, True), (SCN.thermal, True), (SCN.drive, True), (SCN.beams, True),
    (ActuatorState(7.0, 0.0166), True), (SCN.mount, True), (SCN, False),  # raw is a dict
    (InteractionStrengths(f0=1e-23, j_bar=2.0), True),
    (FitResult({"n_bar": 1.2}, {"n_bar": 0.1}, 1.1, True, 5), False),
    (ScanDataset(np.array([1.0, 2.0]), np.array([0.2, 0.3]), np.array([0.01, 0.02]),
                 {"seed": 1}), False),
    (Series(np.array([0.0, 1.0]), np.array([3e-9, -2e-9])), False),
]


def _values(record):
    return {name: getattr(record, name) for name in fields(record)}


@pytest.mark.parametrize("record,hashable", RECORDS, ids=lambda v: type(v).__name__)
def test_record_contract(record, hashable):
    cls, values = type(record), _values(record)
    assert fields(cls) == fields(record) == tuple(values)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert repr(by_position) == repr(by_keyword) == repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")")
    required = [name for name in values if not hasattr(cls, name)]  # defaults: class attributes
    for name in required:
        with pytest.raises(TypeError, match=name):
            cls(**{k: v for k, v in values.items() if k != name})
    with pytest.raises(TypeError, match="colour"):
        cls(**values, colour=1)
    with pytest.raises(TypeError):
        cls(*values.values(), 1)
    with pytest.raises(TypeError):
        cls(*values.values(), **{next(iter(values)): 1})
    for name in (*values, "colour"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record).keys() == values.keys() and not hasattr(record, "colour")
    copy = replace(record)
    assert type(copy) is cls and copy is not record and repr(copy) == repr(record)
    with pytest.raises(TypeError):
        replace(record, colour=1)
    if isinstance(next(iter(values.values())), np.ndarray):
        return  # arrays compare elementwise, so an array record is equal only to itself
    assert by_position == by_keyword == record and not record != copy
    if hashable:
        assert hash(by_position) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_record_repr_and_defaults():
    assert repr(ThermalState(1.5)) == "ThermalState(n_bar=1.5)"
    assert repr(ActuatorState(tip=1.0)) == (
        "ActuatorState(rotary_angle=0.0, linear_pos=0.0, tip=1.0, tilt=0.0)")
    assert ActuatorState() == ActuatorState(0.0, 0.0, 0.0, 0.0)
    assert ActuatorState() != ActuatorState(tip=1.0)
    assert ActuatorState() != ThermalState(0.0) and ActuatorState() != (0.0, 0.0, 0.0, 0.0)


def test_replace_checks_the_new_record():
    with pytest.raises(ValueError, match="n_bar"):
        replace(ThermalState(1.0), n_bar=-1.0)
    with pytest.raises(ValueError, match="tau"):
        replace(SCN.drive, tau=-1.0)
    assert replace(ThermalState(1.0), n_bar=2.0) == ThermalState(2.0)


@pytest.mark.parametrize("make", [
    lambda: ScanDataset(np.ones(2), np.ones(2) / 2, np.ones(2) / 10),
    lambda: Series(np.ones(2), np.zeros(2)),
], ids=["ScanDataset", "Series"])
def test_records_built_without_meta_share_no_dict(make):
    first, second = make(), make()
    first.meta["seed"] = 1
    assert second.meta == {} and make().meta == {}
