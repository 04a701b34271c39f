"""End-to-end acceptance suite.

Eight top-level checks, one per shipped guarantee, each printing a single
PASS/FAIL line (run pytest with -s or check the captured output).  The
heavier statistical checks reuse the independent oracles in oracles.py.
"""

import math
import time

import numpy as np
import pytest

import oracles
from odfkit.constants import HBAR
from odfkit.configio import load_config
from odfkit.core import ThermalState, ground_state_extent, replace, thermal_extent_sq
from odfkit.fitting import fit_far_detuned_gamma, fit_precession, fit_thermometry
from odfkit.geometry import (
    BeamGeometry,
    GeometryInfeasibleError,
    MountGeometry,
    delta_k,
    effective_wavelength,
    misalignment_phase,
)
from odfkit.interactions import (
    force_magnitude,
    gamma_decay_lineshape,
    j_bar,
    optimize_theta,
    precession_lineshape,
    thermometry_model,
)
from odfkit.simulate import (
    _sample_scans,
    simulate_angle_drift,
    simulate_gamma_decay,
    simulate_path_noise,
    simulate_thermometry,
)

SCN = load_config()  # the default config
CFG = SCN.trap
LAMBDA = SCN.beams.laser_wavelength
Z0 = ground_state_extent(CFG)


def report(number, label, condition, detail=""):
    verdict = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {verdict}{suffix}")
    assert condition, f"criterion {number} [{label}] failed{suffix}"


def geom(theta_deg, **kw):
    return BeamGeometry(theta_odf=math.radians(theta_deg), laser_wavelength=LAMBDA, **kw)


def test_criterion_1_geometry_identities():
    start = time.time()
    lam = effective_wavelength(geom(28.0))
    phase = misalignment_phase(geom(28.0, tilt_error=math.radians(0.002)), 150e-6)
    ok = abs(lam - 647e-9) <= 1e-9 and abs(phase - 2.9) <= 0.1
    elapsed = time.time() - start
    report(1, "geometry identities", ok and elapsed < 1.0,
           f"lambda_odf = {lam * 1e9:.2f} nm, edge phase = {phase:.3f} deg, {elapsed:.2f} s")


def test_criterion_2_ratio_reproduction():
    start = time.time()
    drive = SCN.drive

    def ratio(theta_deg, n_bar):
        s = force_magnitude(geom(theta_deg), drive, CFG, ThermalState(n_bar))
        return s.f0 / drive.gamma

    cold = ratio(28.0, 1.27) / ratio(14.0, 1.27)
    hot = ratio(28.0, 10.7) / ratio(14.0, 10.7)
    ok = abs(cold - 1.9) <= 0.3 and hot < 1.5
    elapsed = time.time() - start
    report(2, "force-ratio reproduction", ok and elapsed < 1.0,
           f"cold ratio = {cold:.3f}, hot ratio = {hot:.3f}, {elapsed:.2f} s")


def test_criterion_3_loop_closure_and_coupling_convention():
    # on thermometry_model, the function the thermometry commands call
    from test_interactions import (
        test_jbar_convention_at_loop_closure,
        test_loop_closure_across_force_decades,
    )

    start = time.time()
    failed = []
    for check in (test_loop_closure_across_force_decades, test_jbar_convention_at_loop_closure):
        try:
            check()
        except AssertionError:
            failed.append(check.__name__)
    elapsed = time.time() - start
    report(3, "loop closure and coupling convention", not failed and elapsed < 1.0,
           f"closure to 1e-12 across force decades, Jbar convention to rel 1e-12, {elapsed:.2f} s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_oracle_equivalence():
    start = time.time()
    from test_interactions import trajectory_oracle_residuals

    worst = max(trajectory_oracle_residuals().values())
    dw_worst = 0.0
    drive = SCN.drive
    dk = delta_k(geom(28.0))
    for n_bar in (0.0, 1.27, 10.7):
        state = ThermalState(n_bar)
        dw = force_magnitude(geom(28.0), drive, CFG, state).f0 / (HBAR * abs(drive.delta_ac) * dk)
        mc = oracles.mc_debye_waller(dk, thermal_extent_sq(CFG, state))
        dw_worst = max(dw_worst, abs(dw - mc))
    ok = worst < 1e-6 and dw_worst < 5e-4
    elapsed = time.time() - start
    report(4, "oracle equivalence", ok and elapsed < 120.0,
           f"P_up residual against RK4 = {worst:.1e}, Debye-Waller residual = {dw_worst:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_5_round_trip_estimation():
    start = time.time()
    # each model's scans are drawn in one sampler call: the draws of its simulate_* per seed
    # thermometry: scan chosen for sensitivity to both occupations
    therm_geom = geom(14.0)
    therm_drive = replace(SCN.drive, delta_ac=2 * math.pi * 1000.0)
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 100)
    fractions = {}
    for n_bar, tol in ((10.7, 0.5), (1.27, 0.20)):
        truth = thermometry_model(mu, CFG.omega_com, n_bar, therm_geom, therm_drive, CFG)
        scans = _sample_scans(500, [(truth, seed, mu / (2 * math.pi), "thermometry", {})
                                    for seed in range(300)])
        one = simulate_thermometry(therm_geom, therm_drive, CFG, ThermalState(n_bar),
                                   mu, shots=500, seed=299)
        assert np.array_equal(scans[299].p_up, one.p_up)
        assert np.array_equal(scans[299].sigma, one.sigma)
        hits = 0
        for ds in scans:
            result = fit_thermometry(ds, therm_geom, therm_drive, CFG)
            hits += int(abs(result.params["n_bar"] - n_bar) <= tol)
        fractions[n_bar] = hits / 300.0
    therm_ok = all(frac >= 0.68 for frac in fractions.values())

    # precession: relative sigma below 10 percent
    jb_true = j_bar(30e-24, CFG, 2 * math.pi * 2e3)
    theta1 = np.linspace(0, 2 * math.pi, 40)
    truth = precession_lineshape(jb_true, 100.0, 500e-6, theta1)
    prec_ok = True
    for ds in _sample_scans(500, [(truth, seed, theta1, "precession", {}) for seed in range(20)]):
        result = fit_precession(ds, 100.0, 500e-6)
        rel_sigma = result.sigmas["j_bar"] / abs(result.params["j_bar"])
        rel_err = abs(result.params["j_bar"] - jb_true) / jb_true
        prec_ok = prec_ok and rel_sigma < 0.10 and rel_err < 0.10

    # decoherence rate across the characterized range
    tau_grid = np.linspace(0.25e-3, 5e-3, 20)
    gammas = [gamma for gamma in (80.0, 100.0, 120.0) for _ in range(20)]
    scans = _sample_scans(500, [(gamma_decay_lineshape(gamma, tau_grid), seed % 20, tau_grid,
                                 "gamma", {}) for seed, gamma in enumerate(gammas)])
    one = simulate_gamma_decay(120.0, tau_grid, shots=500, seed=19)
    assert np.array_equal(scans[-1].p_up, one.p_up)
    gamma_hits = sum(int(abs(fit_far_detuned_gamma(ds).params["gamma"] - gamma) / gamma < 0.10)
                     for gamma, ds in zip(gammas, scans))
    gamma_total = len(gammas)
    gamma_ok = gamma_hits / gamma_total >= 0.90
    elapsed = time.time() - start
    report(5, "round-trip estimation", therm_ok and prec_ok and gamma_ok and elapsed < 300.0,
           f"n_bar recovery 10.7: {fractions[10.7]:.0%}, 1.27: {fractions[1.27]:.0%}, "
           f"gamma within 10%: {gamma_hits}/{gamma_total}, {elapsed:.1f} s")


def test_criterion_6_fitter_correctness():
    start = time.time()
    from test_fitting import (
        test_gamma_jacobian_matches_fd,
        test_gamma_zero_noise_round_trip,
        test_precession_jacobian_matches_fd,
        test_precession_permutation_invariance,
        test_precession_zero_noise_round_trip,
        test_thermometry_jacobian_matches_fd,
        test_thermometry_permutation_invariance,
        test_thermometry_zero_noise_round_trip,
    )

    checks = (
        test_thermometry_jacobian_matches_fd,
        test_precession_jacobian_matches_fd,
        test_gamma_jacobian_matches_fd,
        test_thermometry_zero_noise_round_trip,
        test_precession_zero_noise_round_trip,
        test_gamma_zero_noise_round_trip,
        test_thermometry_permutation_invariance,
        test_precession_permutation_invariance,
    )
    failed = []
    for check in checks:
        try:
            check()
        except AssertionError:
            failed.append(check.__name__)
    elapsed = time.time() - start
    report(6, "fitter correctness", not failed,
           f"jacobians, zero-noise round trips, permutation invariance, {elapsed:.1f} s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_7_stability_pipeline():
    start = time.time()
    drift = simulate_angle_drift(6000.0, 10.0, linear_rate=0.002, rms_jitter=0.0, seed=0)
    drift_ok = bool(np.all(np.abs(drift.value) <= 6e-3))
    noise = simulate_path_noise(200.0, 100.0, seed=0)  # 12 nm RMS
    rms = math.sqrt(float(np.mean(noise.value ** 2)))
    phi = 360.0 * rms / 647e-9  # beat-note phase RMS in degrees
    noise_ok = abs(phi - 6.7) <= 0.5
    elapsed = time.time() - start
    report(7, "stability pipeline", drift_ok and noise_ok,
           f"drift end = {drift.value[-1]:.4f} deg, phase rms = {phi:.2f} deg, {elapsed:.2f} s")


def test_criterion_8_optimizer():
    start = time.time()
    drive = SCN.drive
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n_bar = float(rng.uniform(0.0, 30.0))
        lam = float(rng.uniform(280e-9, 350e-9))
        lo = float(rng.uniform(12.0, 20.0))
        hi = float(rng.uniform(lo + 2.0, 36.0))
        state = ThermalState(n_bar)
        theta_star, _ = optimize_theta(CFG, drive, state, MountGeometry(lam),
                                       (math.radians(lo), math.radians(hi)))

        def ratio(thetas):
            g = BeamGeometry(theta_odf=thetas, laser_wavelength=lam)
            return force_magnitude(g, drive, CFG, state).f0 / drive.gamma

        grid_theta, _ = oracles.grid_max(ratio, math.radians(lo), math.radians(hi))
        worst = max(worst, abs(math.degrees(theta_star - grid_theta)))
    try:
        optimize_theta(CFG, drive, ThermalState(1.27), SCN.mount,
                       (math.radians(10.0), math.radians(36.0)))
        rejects = False
    except GeometryInfeasibleError:
        rejects = True
    elapsed = time.time() - start
    report(8, "angle optimizer", worst < 0.01 and rejects,
           f"worst grid deviation = {worst:.4f} deg, window guard ok, {elapsed:.1f} s")
