import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from odfkit.configio import load_config
from odfkit.constants import HBAR
from odfkit.core import ThermalState, ground_state_extent, replace, thermal_extent_sq
from odfkit.geometry import BeamGeometry, delta_k
from odfkit.interactions import (
    ResonanceSingularityError,
    force_magnitude,
    force_turnover_angle,
    j_bar,
    precession_lineshape,
    thermometry_model,
)
from odfkit.interactions import _qr

SCN = load_config()  # the default config
CFG = SCN.trap
DRIVE = SCN.drive  # 2 kHz above the COM mode
Z0 = ground_state_extent(CFG)
LAMBDA = SCN.beams.laser_wavelength


def geom(theta_deg):
    return BeamGeometry(theta_odf=np.radians(theta_deg), laser_wavelength=LAMBDA)


def debye_waller(geometry, drive, state):
    """The Debye-Waller factor inside F0: f0 / (hbar |delta_ac| delta_k)."""
    f0 = force_magnitude(geometry, drive, CFG, state).f0
    return f0 / (HBAR * abs(drive.delta_ac) * delta_k(geometry))


def p_up(drive, state, mu, theta_deg=28.0, cfg=CFG):
    """thermometry_model at the trap's omega_com and the state's n_bar."""
    return thermometry_model(mu, cfg.omega_com, state.n_bar, geom(theta_deg), drive, cfg)


# -- force magnitude and Debye-Waller factor -----------------------------------


@pytest.mark.parametrize("n_bar,expected", [(0.0, 0.976), (1.27, 0.918), (10.7, 0.584)])
def test_debye_waller_frozen_values(n_bar, expected):
    dw = debye_waller(geom(28.0), DRIVE, ThermalState(n_bar=n_bar))
    assert dw == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("n_bar", [0.0, 1.27, 10.7])
def test_debye_waller_matches_monte_carlo_oracle(n_bar):
    # thermal average of cos(dk z) over the Gaussian wavepacket, 1e7 samples
    g = geom(28.0)
    dw = debye_waller(g, DRIVE, ThermalState(n_bar=n_bar))
    mc = oracles.mc_debye_waller(delta_k(g), thermal_extent_sq(CFG, ThermalState(n_bar=n_bar)))
    assert dw == pytest.approx(mc, abs=5e-4)  # 3 significant figures


def test_zero_delta_k_limit():
    s = force_magnitude(geom(0.0), DRIVE, CFG, ThermalState(1.27))
    assert s.f0 == 0.0


def test_interaction_strengths_self_consistent():
    drive = replace(DRIVE, mu=CFG.omega_com + 2 * math.pi * 2e3)
    s = force_magnitude(geom(28.0), drive, CFG, ThermalState(1.27))
    dk = delta_k(geom(28.0))
    assert s.f0 == pytest.approx(
        HBAR * abs(drive.delta_ac) * dk * math.exp(-0.5 * dk * dk * Z0 * Z0 * (2 * 1.27 + 1)),
        rel=1e-12)
    assert s.j_bar is not None and s.j_bar > 0


def test_infinite_thermal_extent_is_an_error_as_float_and_array():
    # 2 nbar + 1 overflows to inf: an input error, not a Debye-Waller factor of 0 and F0 = 0
    state = ThermalState(n_bar=1e308)
    for theta in (28.0, np.array([28.0])):
        with pytest.raises(ArithmeticError, match="^the thermal extent <z.2> evaluates to inf$"):
            force_magnitude(geom(theta), DRIVE, CFG, state)


def test_on_resonance_leaves_j_bar_unset():
    s = force_magnitude(geom(28.0), replace(DRIVE, mu=CFG.omega_com), CFG, ThermalState(1.27))
    assert s.j_bar is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
             min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=1e5),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=math.pi),
              st.just(math.nan)),
)
def test_angle_array_equals_scalar_calls(thetas, n_bar, detune_hz, sign, outside):
    # an angle outside [0, pi) is rejected with one message, as a float or in an array
    with pytest.raises(ValueError) as as_float:
        BeamGeometry(theta_odf=outside, laser_wavelength=LAMBDA)
    with pytest.raises(ValueError) as in_array:
        BeamGeometry(theta_odf=np.array([*thetas, outside]), laser_wavelength=LAMBDA)
    assert str(in_array.value) == str(as_float.value)
    # one call on an angle grid gives the per-angle scalar results bit for bit
    drive = replace(DRIVE, mu=CFG.omega_com + sign * 2 * math.pi * detune_hz)
    state = ThermalState(n_bar)
    angles = BeamGeometry(theta_odf=np.array(thetas), laser_wavelength=LAMBDA)
    grid = force_magnitude(angles, drive, CFG, state)
    points = [force_magnitude(BeamGeometry(theta_odf=t, laser_wavelength=LAMBDA), drive, CFG, state)
              for t in thetas]
    for name in ("f0", "j_bar"):
        assert np.array_equal(getattr(grid, name), [getattr(p, name) for p in points]), name
    # math.exp, not np.exp, which is 1 ulp off at some arguments
    zsq = thermal_extent_sq(CFG, state)
    scale = HBAR * abs(drive.delta_ac)
    assert np.array_equal(grid.f0, [scale * dk * math.exp(-0.5 * dk * dk * zsq)
                                    for dk in delta_k(angles).tolist()])


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


# -- loop physics of thermometry_model ------------------------------------------------
#
# thermometry_model is the one implementation of the spin-echo displacement
# |alpha_total|^2 and per-arm geometric phase chi_arm; with C_ss = cos(4 chi_arm)^(N-1)
# and C_sm = exp(-2 |alpha_total|^2 (2 nbar + 1)), 1 - 2 P_up = e^{-2 Gamma tau} C_ss C_sm.


def contrast(p, drive):
    """1 - 2 P_up with the scattering baseline divided out: C_ss C_sm."""
    return (1.0 - 2.0 * p) / math.exp(-2.0 * drive.gamma * drive.tau)


def test_loop_closure_across_force_decades():
    # one ion (C_ss = 1) and a hot mode: any residual displacement shows in C_sm
    cfg = replace(CFG, n_ions=1)
    drive0 = DRIVE
    f0_ref = force_magnitude(geom(28.0), drive0, cfg, ThermalState(10.7)).f0
    mu = cfg.omega_com + 2 * math.pi * np.arange(1, 6) / drive0.tau
    for f0 in (3e-24, 3e-23, 3e-22):
        drive = replace(DRIVE, delta_ac=drive0.delta_ac * f0 / f0_ref)
        p = p_up(drive, ThermalState(10.7), mu, cfg=cfg)
        assert np.all(np.abs(contrast(p, drive) - 1.0) < 1e-12)


def test_zero_force_is_trivial():
    # no AC-Stark drive: no displacement and no phase, only the scattering baseline
    drive = replace(DRIVE, delta_ac=0.0)
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 13)
    assert np.all(contrast(p_up(drive, ThermalState(1.27), mu), drive) == 1.0)


def test_jbar_convention_at_loop_closure():
    # at delta tau = 2 pi k, alpha_total = 0 and chi_arm = jbar tau / 2, with jbar from j_bar
    state = ThermalState(1.27)
    for k in (1, 2, 3):
        delta = 2 * math.pi * k / DRIVE.tau
        drive = replace(DRIVE, mu=CFG.omega_com + delta)
        jb = j_bar(force_magnitude(geom(28.0), drive, CFG, state).f0, CFG, delta)
        expected = math.cos(2 * jb * drive.tau) ** (CFG.n_ions - 1)
        assert contrast(p_up(drive, state, np.array([drive.mu])), drive)[0] == pytest.approx(
            expected, rel=1e-12)


def test_resonance_analytic_limit():
    # P_up and its Jacobian are continuous into delta = 0 and across the series branch at
    # |delta tau| = 1e-2
    drive = DRIVE
    tau = drive.tau
    scan = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 61)
    _, jac_scan = thermometry_model(scan, CFG.omega_com, 10.7, geom(28.0), drive, CFG, jac=True)
    for center in (0.0, 1e-2, -1e-2):
        mu = CFG.omega_com + (center + np.array([-1e-9, 0.0, 1e-9])) / tau
        p, jac = thermometry_model(mu, CFG.omega_com, 10.7, geom(28.0), drive, CFG, jac=True)
        assert np.allclose(p, p[1], rtol=1e-9, atol=0.0)
        assert np.all(np.abs(jac - jac[1]) <= 1e-6 * np.abs(jac_scan).max(axis=0))
    # the node at resonance: no displacement or phase, only the baseline
    p0 = thermometry_model(np.array([CFG.omega_com]), CFG.omega_com, 10.7, geom(28.0), drive, CFG)
    assert contrast(p0, drive)[0] == pytest.approx(1.0, abs=1e-15)


def trajectory_oracle_residuals(n_ions_list=(2, 125)):
    """Max |P_up - P_RK4| per ion number, over angle, n_bar, delta_ac and delta tau in [0.1, 20].

    The oracle integrates the spin-echo trajectory at the drive scale
    f = F0 z0 / (2 hbar) of force_magnitude and returns |alpha_total| and chi_arm.
    """
    tau = DRIVE.tau
    s_vals = np.linspace(0.1, 20.0, 20)
    cases = [(theta, n_bar, replace(DRIVE, delta_ac=2 * math.pi * delta_ac_hz))
             for theta in (12.0, 28.0, 36.0) for n_bar in (0.1, 1.27, 10.7)
             for delta_ac_hz in (800.0, 8000.0)]
    f = np.array([force_magnitude(geom(theta), drive, CFG, ThermalState(n_bar)).f0
                  for theta, n_bar, drive in cases]) * Z0 / (2 * HBAR)
    mag, chi = oracles.phase_space_trajectory(f[:, None], s_vals[None, :] / tau, tau, "spin_echo")
    worst = {}
    for n_ions in n_ions_list:
        cfg = replace(CFG, n_ions=n_ions)
        for (theta, n_bar, drive), mag_i, chi_i in zip(cases, mag, chi):
            p = p_up(drive, ThermalState(n_bar), cfg.omega_com + s_vals / tau, theta, cfg)
            ref = 0.5 * (1.0 - math.exp(-2.0 * drive.gamma * tau)
                         * np.cos(4.0 * chi_i) ** (n_ions - 1)
                         * np.exp(-2.0 * mag_i ** 2 * (2.0 * n_bar + 1.0)))
            worst[n_ions] = max(worst.get(n_ions, 0.0), float(np.max(np.abs(p - ref))))
    return worst


def test_thermometry_model_matches_trajectory_oracle():
    assert all(residual < 1e-6 for residual in trajectory_oracle_residuals().values())


@pytest.mark.parametrize("index,closed_form,rel", [
    (0, lambda s: (2 - 2 * math.cos(s)) / s ** 2, 1e-10),
    (2, lambda s: (2 * s * math.sin(s) - 4 + 4 * math.cos(s)) / s ** 3, 1e-5),
    (1, lambda s: (1 - math.sin(s) / s) / s, 1e-9),
    (3, lambda s: -1 / s ** 2 - math.cos(s) / s ** 2 + 2 * math.sin(s) / s ** 3, 1e-9),
], ids=["q", "dq", "r", "dr"])
def test_taylor_series_branch_matches_closed_form(index, closed_form, rel):
    # |s| just under 1e-2 takes the series; rel covers the closed form's cancellation there
    for s in np.concatenate([np.linspace(9.9e-3, 1e-2, 50, endpoint=False),
                             -np.linspace(9.9e-3, 1e-2, 50, endpoint=False)]).tolist():
        assert float(_qr(s, jac=True)[index]) == pytest.approx(closed_form(s), rel=rel)


def test_shared_trig_pass_is_bit_equal_to_one_pass_per_term():
    # both sides of the |s| = 1e-2 branch point, signed zeros, subnormals and |s| to 1e3
    edge = np.array([1e-2, np.nextafter(1e-2, 0.0), np.nextafter(1e-2, 1.0)])
    magnitudes = np.concatenate([
        [0.0, 5e-324, 1e-310, np.finfo(float).tiny], edge,
        np.logspace(-300, 3, 400), np.linspace(9e-3, 1.1e-2, 201),
        np.random.default_rng(5).uniform(0.0, 1e3, 2000)])
    s = np.concatenate([magnitudes, -magnitudes])
    q, r, dq, dr = _qr(s, jac=True)
    ref_q, ref_dq, ref_r, ref_dr = oracles.lineshape_series_terms(s)
    for name, got, ref in (("q", q, ref_q), ("dq", dq, ref_dq), ("r", r, ref_r), ("dr", dr, ref_dr)):
        assert got.tobytes() == ref.tobytes(), name
    plain = _qr(s)
    assert len(plain) == 2
    assert plain[0].tobytes() == q.tobytes() and plain[1].tobytes() == r.tobytes()


# -- lineshapes --------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=35.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=-1e4, max_value=1e4),
)
def test_thermometry_model_bounded(theta_deg, n_bar, gamma, detune_hz):
    drive = replace(DRIVE, mu=CFG.omega_com + 2 * math.pi * detune_hz, gamma=gamma)
    p = p_up(drive, ThermalState(n_bar), np.array([drive.mu]), theta_deg)
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
    drive = DRIVE
    mu = CFG.omega_com + 2 * math.pi * np.array([5e5, -5e5])
    p = p_up(drive, ThermalState(1.27), mu)
    expected = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    assert np.allclose(p, expected, atol=1e-4)


def test_thermometry_node_at_resonance():
    # loop closes exactly at delta = 0, leaving only the scattering baseline
    drive = DRIVE
    p = p_up(drive, ThermalState(10.7), np.array([CFG.omega_com]))
    expected = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_thermometry_full_decoherence():
    drive = replace(DRIVE, gamma=1e6)
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 11)
    p = p_up(drive, ThermalState(1.27), mu)
    assert np.allclose(p, 0.5, atol=1e-12)


def test_thermometry_contrast_grows_with_occupation():
    # with one ion C_ss = 1, so the motional lobes alone set the contrast
    cfg = replace(CFG, n_ions=1)
    drive = DRIVE
    mu = cfg.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 201)
    baseline = 0.5 * (1 - math.exp(-2 * drive.gamma * drive.tau))
    hot = p_up(drive, ThermalState(10.7), mu, cfg=cfg)
    cold = p_up(drive, ThermalState(1.27), mu, cfg=cfg)
    assert hot.max() - baseline >= cold.max() - baseline


def test_precession_trivial_points():
    assert precession_lineshape(1641.5, 100.0, 500e-6, np.array([0.0]))[0] == 0.5
    assert precession_lineshape(0.0, 100.0, 500e-6, np.linspace(0, math.pi, 7)).tolist() == [0.5] * 7
    assert precession_lineshape(1641.5, 100.0, 500e-6,
                                np.array([math.pi / 2]))[0] == pytest.approx(0.5, abs=1e-12)


# -- ratio curve and turnover -------------------------------------------------------


def test_ratio_curve_cold_case():
    ratio = force_magnitude(geom(np.array([14.0, 28.0])), DRIVE, CFG,
                            ThermalState(1.27)).f0 / DRIVE.gamma
    assert ratio[1] / ratio[0] == pytest.approx(1.8630, rel=1e-3)


def test_ratio_curve_hot_case():
    ratio = force_magnitude(geom(np.array([14.0, 28.0])), DRIVE, CFG,
                            ThermalState(10.7)).f0 / DRIVE.gamma
    assert ratio[1] / ratio[0] == pytest.approx(1.3284, rel=1e-3)


def test_ratio_curve_ground_state_monotone():
    f0 = force_magnitude(geom(np.linspace(0.5, 36.0, 72)), DRIVE, CFG,
                         ThermalState(0.0)).f0
    assert np.all(np.diff(f0) > 0)


def test_turnover_angle_frozen_values():
    assert math.degrees(force_turnover_angle(CFG, ThermalState(10.7), LAMBDA)) == pytest.approx(
        26.97, abs=0.01)
    assert math.degrees(force_turnover_angle(CFG, ThermalState(1.27), LAMBDA)) == pytest.approx(
        71.8, abs=0.1)
    assert math.isnan(force_turnover_angle(CFG, ThermalState(0.0), LAMBDA))


def test_turnover_angle_is_stationary_point():
    # central finite difference of F0(theta) vanishes at theta*
    state = ThermalState(10.7)
    theta_star = force_turnover_angle(CFG, state, LAMBDA)

    def f0(theta):
        g = BeamGeometry(theta_odf=theta, laser_wavelength=LAMBDA)
        return force_magnitude(g, DRIVE, CFG, state).f0

    h = 1e-6
    deriv = (f0(theta_star + h) - f0(theta_star - h)) / (2 * h)
    scale = f0(theta_star) / theta_star
    assert abs(deriv) < 1e-6 * scale
    assert f0(theta_star) > f0(theta_star - 1e-2)
    assert f0(theta_star) > f0(theta_star + 1e-2)
