import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from odfkit import (
    CHI_TO_JBAR,
    HBAR,
    BeamGeometry,
    OdfDrive,
    ResonanceSingularityError,
    ThermalState,
    TrapIonConfig,
    delta_k,
    force_magnitude,
    force_turnover_angle,
    detuning,
    ground_state_extent,
    j_bar,
    loop_phases,
    precession_lineshape,
    thermal_extent_sq,
    thermometry_lineshape,
)

CFG = TrapIonConfig()
Z0 = ground_state_extent(CFG)


def geom(theta_deg):
    return BeamGeometry(theta_odf=np.radians(theta_deg))


# -- force magnitude and Debye-Waller factor -----------------------------------


@pytest.mark.parametrize("n_bar,expected", [(0.0, 0.976), (1.27, 0.918), (10.7, 0.584)])
def test_debye_waller_frozen_values(n_bar, expected):
    s = force_magnitude(geom(28.0), OdfDrive(), CFG, ThermalState(n_bar=n_bar))
    assert s.debye_waller == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("n_bar", [0.0, 1.27, 10.7])
def test_debye_waller_matches_monte_carlo_oracle(n_bar):
    # thermal average of cos(dk z) over the Gaussian wavepacket, 1e7 samples
    g = geom(28.0)
    dw = force_magnitude(g, OdfDrive(), CFG, ThermalState(n_bar=n_bar)).debye_waller
    mc = oracles.mc_debye_waller(delta_k(g), thermal_extent_sq(CFG, ThermalState(n_bar=n_bar)))
    assert dw == pytest.approx(mc, abs=5e-4)  # 3 significant figures


def test_zero_delta_k_limit():
    s = force_magnitude(geom(0.0), OdfDrive(), CFG, ThermalState(1.27))
    assert s.f0 == 0.0
    assert s.debye_waller == 1.0
    assert s.lamb_dicke == 0.0


def test_interaction_strengths_self_consistent():
    drive = OdfDrive(mu=CFG.omega_com + 2 * math.pi * 2e3)
    s = force_magnitude(geom(28.0), drive, CFG, ThermalState(1.27))
    # debye_waller exactly reproduces f0 / (hbar |delta_ac| delta_k)
    assert s.debye_waller == pytest.approx(
        s.f0 / (HBAR * abs(drive.delta_ac) * delta_k(geom(28.0))), rel=1e-12)
    assert s.lamb_dicke == pytest.approx(delta_k(geom(28.0)) * Z0, rel=1e-12)
    assert s.f0_over_gamma == pytest.approx(s.f0 / drive.gamma, rel=1e-12)
    assert s.j_bar is not None and s.j_bar > 0


def test_on_resonance_leaves_j_bar_unset():
    s = force_magnitude(geom(28.0), OdfDrive(mu=CFG.omega_com), CFG, ThermalState(1.27))
    assert s.j_bar is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
             min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=1e5),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from(["single_arm", "spin_echo"]),
)
def test_angle_array_equals_scalar_calls(thetas, n_bar, detune_hz, sign, sequence):
    # one call on an angle grid gives the per-angle scalar results bit for bit
    drive = OdfDrive(mu=CFG.omega_com + sign * 2 * math.pi * detune_hz)
    state = ThermalState(n_bar)
    angles = BeamGeometry(theta_odf=np.array(thetas))
    grid = force_magnitude(angles, drive, CFG, state)
    points = [force_magnitude(BeamGeometry(theta_odf=t), drive, CFG, state) for t in thetas]
    for name in ("f0", "debye_waller", "lamb_dicke", "j_bar", "f0_over_gamma"):
        assert np.array_equal(getattr(grid, name), [getattr(p, name) for p in points]), name
    # math.exp, not np.exp, which is 1 ulp off at some arguments
    zsq = thermal_extent_sq(CFG, state)
    assert np.array_equal(grid.debye_waller,
                          [math.exp(-0.5 * dk * dk * zsq) for dk in delta_k(angles).tolist()])
    for delta in (detuning(drive, CFG), 0.0):
        loops = loop_phases(grid.f0, CFG, delta, drive.tau, sequence)
        per = [loop_phases(f0, CFG, delta, drive.tau, sequence) for f0 in grid.f0.tolist()]
        assert np.array_equal(loops.alpha_total, [lp.alpha_total for lp in per])
        assert np.array_equal(loops.chi_arm, [lp.chi_arm for lp in per])


# -- j_bar ---------------------------------------------------------------------


def test_j_bar_frozen_value():
    # F0 = 30 yN, 2 kHz detuning at the default trap
    jb = j_bar(30e-24, CFG, 2 * math.pi * 2e3)
    assert jb == pytest.approx(1641.5482756446918, rel=1e-12)
    assert jb == pytest.approx(1.64e3, rel=1e-3)


def test_j_bar_quadratic_in_force():
    delta = 2 * math.pi * 2e3
    assert j_bar(60e-24, CFG, delta) == pytest.approx(4 * j_bar(30e-24, CFG, delta), rel=1e-12)


def test_j_bar_inverse_in_detuning():
    delta = 2 * math.pi * 2e3
    assert j_bar(30e-24, CFG, 2 * delta) == pytest.approx(0.5 * j_bar(30e-24, CFG, delta), rel=1e-12)


def test_j_bar_sign_follows_detuning():
    delta = 2 * math.pi * 2e3
    assert j_bar(30e-24, CFG, -delta) == pytest.approx(-j_bar(30e-24, CFG, delta), rel=1e-12)


def test_j_bar_on_resonance_errors():
    with pytest.raises(ResonanceSingularityError):
        j_bar(30e-24, CFG, 0.0)


# -- loop phases -----------------------------------------------------------------


def test_loop_closure_across_force_decades():
    tau = 500e-6
    for f0 in (3e-24, 3e-23, 3e-22):
        for k in range(1, 6):
            delta = 2 * math.pi * k / tau
            lp = loop_phases(f0, CFG, delta, tau, "spin_echo")
            assert abs(lp.alpha_total) < 1e-12


def test_zero_force_is_trivial():
    lp = loop_phases(0.0, CFG, 2 * math.pi * 2e3, 500e-6, "spin_echo")
    assert lp.alpha_total == 0.0
    assert lp.chi_arm == 0.0


def test_chi_to_jbar_convention_regression():
    # at loop closure CHI_TO_JBAR * chi_arm / tau reproduces the Ising coupling
    tau = 500e-6
    f0 = 30e-24
    delta = 2 * math.pi / tau  # delta tau = 2 pi
    lp = loop_phases(f0, CFG, delta, tau, "spin_echo")
    assert CHI_TO_JBAR * lp.chi_arm / tau == pytest.approx(
        j_bar(f0, CFG, delta), rel=1e-9)


def test_resonance_analytic_limit():
    tau = 500e-6
    f0 = 30e-24
    f = f0 * Z0 / (2 * HBAR)
    lp = loop_phases(f0, CFG, 0.0, tau, "single_arm")
    assert abs(lp.alpha_total) == pytest.approx(f * tau, rel=1e-9)
    assert lp.chi_arm == pytest.approx(0.0, abs=1e-12 * f * f * tau * tau)
    # continuity against a tiny detuning
    near = loop_phases(f0, CFG, 1e-6, tau, "single_arm")
    assert abs(near.alpha_total) == pytest.approx(abs(lp.alpha_total), rel=1e-9)


def test_single_arm_vs_echo_magnitude():
    tau = 500e-6
    delta = math.pi / tau  # half-closure: echo doubles the displacement
    one = loop_phases(30e-24, CFG, delta, tau, "single_arm")
    two = loop_phases(30e-24, CFG, delta, tau, "spin_echo")
    assert abs(two.alpha_total) == pytest.approx(2 * abs(one.alpha_total), rel=1e-12)


def test_unknown_sequence_rejected():
    with pytest.raises(ValueError):
        loop_phases(30e-24, CFG, 1.0, 500e-6, "ramsey")
    with pytest.raises(ValueError):
        loop_phases(30e-24, CFG, 1.0, 0.0)


def test_loop_phases_match_trajectory_oracle():
    # 20x20 grid: delta tau in [0.1, 20] by force across two decades
    tau = 500e-6
    s_vals = np.linspace(0.1, 20.0, 20)
    f0_vals = np.logspace(math.log10(3e-24), math.log10(3e-22), 20)
    S, F0 = np.meshgrid(s_vals, f0_vals)
    delta = S / tau
    f = F0 * Z0 / (2 * HBAR)
    num_mag, num_chi = oracles.phase_space_trajectory(f, delta, tau, "spin_echo")
    for j in range(20):
        lp = loop_phases(F0[:, j], CFG, float(delta[0, j]), tau, "spin_echo")
        assert np.abs(lp.alpha_total) == pytest.approx(num_mag[:, j], rel=1e-6)
        assert lp.chi_arm == pytest.approx(num_chi[:, j], rel=1e-6)


# -- lineshapes --------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=35.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=-1e4, max_value=1e4),
)
def test_thermometry_lineshape_bounded(theta_deg, n_bar, gamma, detune_hz):
    drive = OdfDrive(mu=CFG.omega_com + 2 * math.pi * detune_hz, gamma=gamma)
    p = thermometry_lineshape(geom(theta_deg), drive, CFG, ThermalState(n_bar),
                              np.array([drive.mu]))
    assert 0.0 <= p[0] <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_precession_lineshape_bounded(jb, gamma, theta1):
    p = precession_lineshape(jb, gamma, 500e-6, np.array([theta1]))
    assert 0.0 <= p[0] <= 1.0


def test_thermometry_far_detuned_baseline():
    drive = OdfDrive()
    mu = CFG.omega_com + 2 * math.pi * np.array([5e5, -5e5])
    p = thermometry_lineshape(geom(28.0), drive, CFG, ThermalState(1.27), mu)
    expected = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    assert np.allclose(p, expected, atol=1e-4)


def test_thermometry_node_at_resonance():
    # loop closes exactly at delta = 0, leaving only the scattering baseline
    drive = OdfDrive()
    p = thermometry_lineshape(geom(28.0), drive, CFG, ThermalState(10.7),
                              np.array([CFG.omega_com]))
    expected = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_thermometry_full_decoherence():
    drive = OdfDrive(gamma=1e6)
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 11)
    p = thermometry_lineshape(geom(28.0), drive, CFG, ThermalState(1.27), mu)
    assert np.allclose(p, 0.5, atol=1e-12)


def test_thermometry_contrast_grows_with_occupation():
    # with one ion C_ss = 1, so the motional lobes alone set the contrast
    cfg = TrapIonConfig(n_ions=1)
    drive = OdfDrive()
    mu = cfg.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 201)
    baseline = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    hot = thermometry_lineshape(geom(28.0), drive, cfg, ThermalState(10.7), mu)
    cold = thermometry_lineshape(geom(28.0), drive, cfg, ThermalState(1.27), mu)
    assert hot.max() - baseline >= cold.max() - baseline


def test_precession_trivial_points():
    assert precession_lineshape(1641.5, 100.0, 500e-6, np.array([0.0]))[0] == 0.5
    assert precession_lineshape(0.0, 100.0, 500e-6, np.linspace(0, math.pi, 7)).tolist() == [0.5] * 7
    assert precession_lineshape(1641.5, 100.0, 500e-6,
                                np.array([math.pi / 2]))[0] == pytest.approx(0.5, abs=1e-12)


# -- ratio curve and turnover -------------------------------------------------------


def test_ratio_curve_cold_case():
    ratio = force_magnitude(geom(np.array([14.0, 28.0])), OdfDrive(), CFG,
                            ThermalState(1.27)).f0_over_gamma
    assert ratio[1] / ratio[0] == pytest.approx(1.8630, rel=1e-3)


def test_ratio_curve_hot_case():
    ratio = force_magnitude(geom(np.array([14.0, 28.0])), OdfDrive(), CFG,
                            ThermalState(10.7)).f0_over_gamma
    assert ratio[1] / ratio[0] == pytest.approx(1.3284, rel=1e-3)


def test_ratio_curve_ground_state_monotone():
    f0 = force_magnitude(geom(np.linspace(0.5, 36.0, 72)), OdfDrive(), CFG,
                         ThermalState(0.0)).f0
    assert np.all(np.diff(f0) > 0)


def test_ratio_curve_requires_positive_gamma():
    # the ratio is left unset without scattering; ratio-scan then exits 1
    s = force_magnitude(geom(np.array([14.0, 28.0])), OdfDrive(gamma=0.0), CFG,
                        ThermalState(1.27))
    assert s.f0_over_gamma is None


def test_turnover_angle_frozen_values():
    assert math.degrees(force_turnover_angle(CFG, ThermalState(10.7))) == pytest.approx(
        26.97, abs=0.01)
    assert math.degrees(force_turnover_angle(CFG, ThermalState(1.27))) == pytest.approx(
        71.8, abs=0.1)
    assert math.isnan(force_turnover_angle(CFG, ThermalState(0.0)))


def test_turnover_angle_is_stationary_point():
    # central finite difference of F0(theta) vanishes at theta*
    state = ThermalState(10.7)
    theta_star = force_turnover_angle(CFG, state)

    def f0(theta):
        return force_magnitude(BeamGeometry(theta_odf=theta), OdfDrive(), CFG, state).f0

    h = 1e-6
    deriv = (f0(theta_star + h) - f0(theta_star - h)) / (2 * h)
    scale = f0(theta_star) / theta_star
    assert abs(deriv) < 1e-6 * scale
    assert f0(theta_star) > f0(theta_star - 1e-2)
    assert f0(theta_star) > f0(theta_star + 1e-2)
