import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from odfkit import (
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


def geom(theta_deg, **kw):
    return BeamGeometry(theta_odf=math.radians(theta_deg), **kw)


# -- delta_k and effective wavelength -----------------------------------------


def test_delta_k_zero_angle():
    assert delta_k(geom(0.0)) == 0.0


def test_delta_k_28_degrees():
    assert delta_k(geom(28.0)) == pytest.approx(9.7096e6, rel=1e-4)


def test_effective_wavelength_28_degrees():
    assert effective_wavelength(geom(28.0)) == pytest.approx(647e-9, abs=1e-9)


def test_effective_wavelength_14_degrees():
    assert effective_wavelength(geom(14.0)) == pytest.approx(1.285e-6, rel=1e-3)


def test_effective_wavelength_counterpropagating_limit():
    # theta_odf < pi is enforced; approach the limit lambda/2 from below
    lam = 313.1e-9
    assert effective_wavelength(geom(180.0 - 1e-9)) == pytest.approx(lam / 2, rel=1e-9)


def test_effective_wavelength_60_degrees_equals_laser():
    assert effective_wavelength(geom(60.0)) == pytest.approx(313.1e-9, rel=1e-12)


def test_effective_wavelength_zero_angle_errors():
    with pytest.raises(ValueError):
        effective_wavelength(geom(0.0))


@given(st.floats(min_value=0.0, max_value=math.pi - 1e-9),
       st.floats(min_value=1e-12, max_value=math.pi - 1e-9))
def test_delta_k_monotone_in_theta(theta, bump):
    lo = BeamGeometry(theta_odf=theta)
    hi = BeamGeometry(theta_odf=min(theta + bump, math.pi - 1e-12))
    assert delta_k(hi) >= delta_k(lo)


def test_beam_geometry_invariants():
    with pytest.raises(ValueError):
        BeamGeometry(theta_odf=-0.1)
    with pytest.raises(ValueError):
        BeamGeometry(theta_odf=math.pi)
    with pytest.raises(ValueError):
        BeamGeometry(theta_odf=0.5, tilt_error=-1e-3)


@pytest.mark.parametrize("bad", [-0.1, math.pi, math.nan])
def test_beam_geometry_checks_every_angle_of_an_array(bad):
    assert len(delta_k(BeamGeometry(theta_odf=np.array([0.0, 0.5, 3.0])))) == 3
    with pytest.raises(ValueError):
        BeamGeometry(theta_odf=np.array([0.2, bad, 0.5]))


# -- misalignment phase --------------------------------------------------------


def test_misalignment_phase_published_case():
    g = geom(28.0, tilt_error=math.radians(0.002))
    assert misalignment_phase(g, 150e-6) == pytest.approx(2.9, abs=0.1)


def test_misalignment_phase_zero_tilt():
    assert misalignment_phase(geom(28.0), 150e-6) == 0.0


def test_misalignment_phase_doubles_with_tilt():
    g = geom(28.0, tilt_error=math.radians(0.004))
    assert misalignment_phase(g, 150e-6) == pytest.approx(5.8, abs=0.1)


def test_misalignment_phase_linear_in_radius():
    g = geom(28.0, tilt_error=math.radians(0.002))
    assert misalignment_phase(g, 300e-6) == pytest.approx(
        2.0 * misalignment_phase(g, 150e-6), rel=1e-12)


def test_misalignment_phase_linear_in_small_tilt():
    # for eps < 0.1 deg the sin(eps) form is linear to relative 1e-5
    base = math.radians(0.05)
    one = misalignment_phase(geom(28.0, tilt_error=base), 150e-6)
    two = misalignment_phase(geom(28.0, tilt_error=2 * base), 150e-6)
    assert two == pytest.approx(2.0 * one, rel=1e-5)


@pytest.mark.parametrize("theta_deg", [12.0, 20.0, 28.0, 36.0])
@pytest.mark.parametrize("tilt_deg", [0.002, 0.05, 1.0])
def test_misalignment_phase_matches_3d_vector_oracle(theta_deg, tilt_deg):
    g = geom(theta_deg, tilt_error=math.radians(tilt_deg))
    expected = oracles.misalignment_phase_3d(
        math.radians(theta_deg), 313.1e-9, math.radians(tilt_deg), 150e-6)
    assert misalignment_phase(g, 150e-6) == pytest.approx(expected, rel=1e-10)


def test_misalignment_phase_negative_radius_errors():
    with pytest.raises(ValueError):
        misalignment_phase(geom(28.0), -1e-6)


# -- actuator kinematics ---------------------------------------------------------


def test_symmetric_pose_angles():
    mount = MountGeometry()
    for theta_deg, rotary in ((14.0, 3.5), (28.0, 7.0)):
        state = actuators_for_angle(math.radians(theta_deg), mount)
        assert state.rotary_angle == pytest.approx(rotary, rel=1e-12)
        g = angle_from_actuators(state, mount)
        assert g.theta_odf == pytest.approx(math.radians(theta_deg), abs=1e-9)


def test_kinematics_round_trip_100_points():
    mount = MountGeometry()
    for theta in np.linspace(math.radians(12.0), math.radians(36.0), 100):
        state = actuators_for_angle(float(theta), mount)
        back = angle_from_actuators(state, mount).theta_odf
        assert abs(back - theta) < 1e-9


def test_angle_out_of_window_rejected():
    mount = MountGeometry()
    with pytest.raises(AngleRangeError) as err:
        actuators_for_angle(math.radians(11.0), mount)
    # diagnostic names both limits
    assert "12.0" in str(err.value) and "36.0" in str(err.value)
    with pytest.raises(AngleRangeError):
        actuators_for_angle(math.radians(37.0), mount)


def test_boundary_angle_accepted():
    mount = MountGeometry()
    state = actuators_for_angle(math.radians(36.0), mount)
    assert angle_from_actuators(state, mount).theta_odf == pytest.approx(
        math.radians(36.0), abs=1e-9)


def test_crossing_miss_rejected():
    mount = MountGeometry()
    good = actuators_for_angle(math.radians(28.0), mount)
    bad = ActuatorState(rotary_angle=good.rotary_angle,
                        linear_pos=good.linear_pos + 1e-3)
    with pytest.raises(GeometryInfeasibleError):
        angle_from_actuators(bad, mount)


def test_window_violation_rejected():
    # a crossing-consistent pose at 40 degrees still violates the window
    mount = MountGeometry()
    wide = MountGeometry(theta_min=math.radians(5.0), theta_max=math.radians(60.0))
    state = actuators_for_angle(math.radians(40.0), wide)
    with pytest.raises(GeometryInfeasibleError):
        angle_from_actuators(state, mount)


def test_asymmetric_pair_sums_half_angles():
    mount = MountGeometry(theta_min=math.radians(5.0), theta_max=math.radians(60.0))
    a = actuators_for_angle(math.radians(20.0), mount)
    b = actuators_for_angle(math.radians(30.0), mount)
    g = angle_from_actuators(a, mount, b)
    assert g.theta_odf == pytest.approx(math.radians(25.0), abs=1e-9)


def test_tip_stages_tilt_delta_k():
    mount = MountGeometry()
    base = actuators_for_angle(math.radians(28.0), mount)
    tipped = ActuatorState(rotary_angle=base.rotary_angle,
                           linear_pos=base.linear_pos, tip=0.001)
    g = angle_from_actuators(tipped, mount)
    assert g.tilt_error == pytest.approx(math.radians(0.002), rel=1e-12)


def test_actuator_travel_limits():
    with pytest.raises(ValueError):
        ActuatorState(rotary_angle=51.0, linear_pos=0.0)
    with pytest.raises(ValueError):
        ActuatorState(rotary_angle=0.0, linear_pos=22e-3)


# -- repeatability budget --------------------------------------------------------


def test_rotary_only_budget():
    budget = ActuatorBudget(rotary_repeatability=0.0014, linear_repeatability=0.0)
    err = repeatability_to_angle_error(budget, MountGeometry())
    assert math.degrees(err) == pytest.approx(0.0056, rel=1e-9)


def test_zero_budget():
    budget = ActuatorBudget(rotary_repeatability=0.0, linear_repeatability=0.0,
                            openloop_resolution=0.0)
    assert repeatability_to_angle_error(budget, MountGeometry()) == 0.0


def test_linear_only_budget_at_50mm():
    budget = ActuatorBudget(rotary_repeatability=0.0, linear_repeatability=30e-9)
    err = repeatability_to_angle_error(budget, MountGeometry(d_axial=50e-3))
    assert err == pytest.approx(math.atan(30e-9 / 50e-3), rel=1e-12)
    assert err == pytest.approx(6e-7, rel=1e-3)


def test_budget_rejects_negative():
    with pytest.raises(ValueError):
        ActuatorBudget(rotary_repeatability=-0.001)
