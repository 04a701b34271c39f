import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from odfkit.configio import load_config
from odfkit.core import ThermalState
from odfkit.fitting import (
    FitInputError,
    f0_from_jbar,
    fit_far_detuned_gamma,
    fit_precession,
    fit_thermometry,
    weighted_f0,
)
from odfkit.csvio import ScanDataset
from odfkit.geometry import BeamGeometry, GeometryInfeasibleError, MountGeometry
from odfkit.interactions import (
    force_magnitude,
    force_turnover_angle,
    gamma_decay_lineshape,
    j_bar,
    optimize_theta,
    precession_lineshape,
    thermometry_model,
)
from odfkit.simulate import simulate_precession, simulate_thermometry

SCN = load_config()  # the default config
CFG = SCN.trap
GEOM = SCN.beams  # 28 degrees
DRIVE = SCN.drive
MOUNT = SCN.mount  # the 12-36 degree window
MU = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 30)


def _thermometry_dataset(n_bar=1.27, sigma=1e-3, mu=MU):
    p = thermometry_model(mu, CFG.omega_com, n_bar, GEOM, DRIVE, CFG)
    return ScanDataset(abscissa=mu / (2 * math.pi), p_up=p,
                       sigma=np.full(len(mu), sigma), meta={"kind": "thermometry"})


def _thermometry(x, params, jac=False):
    return thermometry_model(x, *params, GEOM, DRIVE, CFG, jac=jac)


def _precession(x, params, jac=False):
    return precession_lineshape(params[0], 100.0, 500e-6, x, jac=jac)


def _gamma(x, params, jac=False):
    return gamma_decay_lineshape(params[0], x, jac=jac)


def _check_jacobian(model, x, params, rel_steps):
    """Central finite differences of model(x, p) against model(x, p, jac=True).

    Comparison is elementwise at 1e-5 relative with the denominator floored
    at a small fraction of the column scale, which keeps near-zero entries
    from amplifying finite-difference roundoff.
    """
    _, analytic = model(x, params, jac=True)
    assert analytic.shape == (len(x), len(params))
    for k, rel in enumerate(rel_steps):
        h = rel * max(abs(params[k]), 1e-30)
        up = list(params)
        dn = list(params)
        up[k] += h
        dn[k] -= h
        fd = (model(x, up) - model(x, dn)) / (up[k] - dn[k])
        scale = max(np.max(np.abs(fd)), 1e-300)
        denom = np.maximum(np.abs(fd), 1e-2 * scale)
        assert np.max(np.abs(analytic[:, k] - fd) / denom) < 1e-5


# -- Jacobians ---------------------------------------------------------------------


def test_thermometry_jacobian_matches_fd():
    params = (CFG.omega_com + 2 * math.pi * 120.0, 2.1)
    _check_jacobian(_thermometry, MU, params, rel_steps=(1e-9, 1e-6))


def test_thermometry_jacobian_matches_fd_hot():
    params = (CFG.omega_com - 2 * math.pi * 75.0, 9.4)
    _check_jacobian(_thermometry, MU, params, rel_steps=(1e-9, 1e-6))


def test_precession_jacobian_matches_fd():
    grid = np.linspace(0.05, 2 * math.pi, 40)
    _check_jacobian(_precession, grid, (1500.0,), rel_steps=(1e-6,))


def test_gamma_jacobian_matches_fd():
    grid = np.linspace(0.25e-3, 5e-3, 20)
    _check_jacobian(_gamma, grid, (95.0,), rel_steps=(1e-6,))


# -- one model function per measurement -----------------------------------------------


@pytest.mark.parametrize("model,x,params", [
    (_thermometry, MU, (CFG.omega_com, 10.7)),
    (_precession, np.linspace(0, 2 * math.pi, 40), (1641.5,)),
    (_gamma, np.linspace(0.25e-3, 5e-3, 20), (95.0,)),
], ids=["thermometry", "precession", "gamma"])
def test_simulators_sample_the_fitted_model(model, x, params):
    # the simulate_* functions sample the jac=False P_up of the model function
    # the fits evaluate; its jac=True P_up is the same bit for bit
    p_up, _ = model(x, params, jac=True)
    assert np.array_equal(p_up, model(x, params))


# -- zero-noise round trips -----------------------------------------------------------


def test_thermometry_zero_noise_round_trip():
    ds = _thermometry_dataset(n_bar=1.27)
    result = fit_thermometry(ds, GEOM, DRIVE, CFG)
    assert result.converged
    assert result.params["omega_com"] == pytest.approx(CFG.omega_com, rel=1e-6)
    assert result.params["n_bar"] == pytest.approx(1.27, rel=1e-6)


def test_thermometry_zero_noise_hot():
    ds = _thermometry_dataset(n_bar=10.7)
    result = fit_thermometry(ds, GEOM, DRIVE, CFG)
    assert result.converged
    assert result.params["n_bar"] == pytest.approx(10.7, rel=1e-6)


def test_precession_zero_noise_round_trip():
    jb = 1641.5482756446918
    grid = np.linspace(0, 2 * math.pi, 40)
    p = precession_lineshape(jb, 100.0, 500e-6, grid)
    ds = ScanDataset(abscissa=grid, p_up=p, sigma=np.full(len(grid), 1e-3),
                     meta={"kind": "precession"})
    result = fit_precession(ds, gamma=100.0, tau=500e-6)
    assert result.converged
    assert result.params["j_bar"] == pytest.approx(jb, rel=1e-6)


def test_gamma_zero_noise_round_trip():
    grid = np.linspace(0.25e-3, 5e-3, 20)
    p = 0.5 * (1 - np.exp(-2 * 100.0 * grid))
    ds = ScanDataset(abscissa=grid, p_up=p, sigma=np.full(len(grid), 1e-3),
                     meta={"kind": "gamma"})
    result = fit_far_detuned_gamma(ds)
    assert result.converged
    assert result.params["gamma"] == pytest.approx(100.0, rel=1e-6)


# -- permutation invariance -----------------------------------------------------------


def _shuffled(ds, seed=123):
    order = np.random.default_rng(seed).permutation(len(ds))
    return ScanDataset(abscissa=ds.abscissa[order], p_up=ds.p_up[order],
                       sigma=ds.sigma[order], meta=dict(ds.meta))


def test_thermometry_permutation_invariance():
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=8)
    a = fit_thermometry(ds, GEOM, DRIVE, CFG)
    b = fit_thermometry(_shuffled(ds), GEOM, DRIVE, CFG)
    assert b.params["omega_com"] == pytest.approx(a.params["omega_com"], rel=1e-9)
    assert b.params["n_bar"] == pytest.approx(a.params["n_bar"], rel=1e-9)


def test_precession_permutation_invariance():
    ds = simulate_precession(1641.5, 100.0, 500e-6, np.linspace(0, 2 * math.pi, 40),
                             shots=500, seed=8)
    a = fit_precession(ds, 100.0, 500e-6)
    b = fit_precession(_shuffled(ds), 100.0, 500e-6)
    assert b.params["j_bar"] == pytest.approx(a.params["j_bar"], rel=1e-9)


# -- result structure ------------------------------------------------------------------


def test_fit_result_reports_both_sigma_conventions():
    # scaling the sigma column by c scales the raw sigmas by c and chi2_reduced by 1/c^2;
    # FitResult.sigmas are raw while chi2_reduced <= 1 and raw * sqrt(chi2_reduced) above
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=2)

    def fit(c):
        scaled = ScanDataset(abscissa=ds.abscissa, p_up=ds.p_up, sigma=c * ds.sigma,
                             meta=dict(ds.meta))
        return fit_thermometry(scaled, GEOM, DRIVE, CFG)

    wide, narrow = fit(8.0), fit(0.25)
    assert wide.chi2_reduced <= 1.0 < narrow.chi2_reduced
    assert narrow.chi2_reduced == pytest.approx(1024 * wide.chi2_reduced, rel=1e-6)
    for name in ("omega_com", "n_bar"):
        assert narrow.params[name] == pytest.approx(wide.params[name], rel=1e-9)
        raw_narrow = wide.sigmas[name] * 0.25 / 8.0
        assert raw_narrow > 0
        assert narrow.sigmas[name] == pytest.approx(
            raw_narrow * math.sqrt(narrow.chi2_reduced), rel=1e-6)


def test_precession_slope_start_beyond_quarter_turn():
    # no theta1 <= pi/2, or only one there: the slope start takes every point
    jb = 1641.5482756446918
    for grid in (np.linspace(2.0, 2 * math.pi, 40), np.linspace(0.5 * math.pi, 2 * math.pi, 40)):
        p = precession_lineshape(jb, 100.0, 500e-6, grid)
        ds = ScanDataset(abscissa=grid, p_up=p, sigma=np.full(len(grid), 1e-3),
                         meta={"kind": "precession"})
        assert math.isfinite(fit_precession(ds, gamma=100.0, tau=500e-6).params["j_bar"])


@pytest.mark.parametrize("x", [[0.3, 0.3, 0.3], [-0.0, 0.0, 0.0]])
def test_fits_need_two_distinct_abscissae(x):
    ds = ScanDataset(abscissa=np.array(x), p_up=np.full(3, 0.25), sigma=np.full(3, 0.01))
    with pytest.raises(FitInputError, match="^need at least 2 distinct theta1 values$"):
        fit_precession(ds, gamma=100.0, tau=500e-6)
    with pytest.raises(FitInputError, match="^need at least 2 distinct tau values$"):
        fit_far_detuned_gamma(ds)


def test_thermometry_requires_six_points():
    ds = _thermometry_dataset(mu=CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 5))
    with pytest.raises(FitInputError):
        fit_thermometry(ds, GEOM, DRIVE, CFG)


# -- weighted F0 combination ------------------------------------------------------------


def test_weighted_f0_frozen_example():
    f0, sigma = weighted_f0([(28.0, 2.0), (34.0, 4.0)])
    assert f0 == pytest.approx(29.2, rel=1e-12)
    assert sigma == pytest.approx(1.7888543819998317, rel=1e-12)


def test_weighted_f0_is_inverse_variance_mean():
    entries = [(30.0, 1.5), (31.0, 2.5), (29.5, 1.0)]
    f0, _ = weighted_f0(entries)
    w = np.array([1 / s ** 2 for _, s in entries])
    v = np.array([f for f, _ in entries])
    assert f0 == pytest.approx(float((w * v).sum() / w.sum()), rel=1e-14)


def test_weighted_f0_permutation_invariant():
    entries = [(30.0, 1.5), (31.0, 2.5), (29.5, 1.0)]
    a = weighted_f0(entries)
    b = weighted_f0(entries[::-1])
    assert a == pytest.approx(b, rel=1e-14)


def test_weighted_f0_sigma_shrinks_with_entries():
    entries = [(30.0, 2.0), (30.1, 2.0), (29.9, 2.0), (30.0, 2.0)]
    sigmas = [weighted_f0(entries[:k])[1] for k in range(1, 5)]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def test_weighted_f0_validation():
    with pytest.raises(FitInputError, match="at least one"):
        weighted_f0([])
    with pytest.raises(FitInputError, match="sigmas must be > 0"):
        weighted_f0([(30.0, 0.0)])
    with pytest.raises(FitInputError, match="sigmas must be > 0"):
        weighted_f0([(30.0, 2.0), (31.0, math.nan)])
    for f0 in (math.nan, math.inf):
        with pytest.raises(FitInputError, match="F0 values must be finite"):
            weighted_f0([(f0, 2.0)])
    # a sigma whose square underflows to 0, and two whose weights 1/sigma^2 overflow
    for entries in ([(30.0, 1e-200)], [(30.0, 1e-160), (31.0, 1e-160)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitInputError, match="too small to weight"):
                weighted_f0(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
        with pytest.raises(FitInputError, match="every sigma is infinite"):
            weighted_f0([(30.0, math.inf), (31.0, math.inf)])
    # an F0 whose weighted sum overflows, alone or against one of the other sign
    for entries in ([(1e308, 0.1)], [(1e308, 0.1), (-1e308, 0.1)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitInputError, match="too large to weight"):
                weighted_f0(entries)
    # an infinite sigma among finite ones carries no weight
    assert weighted_f0([(30.0, 2.0), (99.0, math.inf)]) == (30.0, 2.0)


def test_f0_from_jbar_inverts_coupling():
    delta = 2 * math.pi * 2e3
    jb = j_bar(30e-24, CFG, delta)
    f0, sigma = f0_from_jbar(jb, 0.1 * jb, CFG, delta)
    assert f0 == pytest.approx(30e-24, rel=1e-12)
    assert sigma == pytest.approx(0.05 * f0, rel=1e-12)
    with pytest.raises(FitInputError):
        f0_from_jbar(-jb, 0.1 * jb, CFG, delta)


# -- design optimizer -------------------------------------------------------------------


def test_optimize_theta_matches_grid_oracle_50_cases():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n_bar = float(rng.uniform(0.0, 30.0))
        lam = float(rng.uniform(280e-9, 350e-9))
        lo = float(rng.uniform(12.0, 20.0))
        hi = float(rng.uniform(lo + 2.0, 36.0))
        state = ThermalState(n_bar)
        theta_star, _ = optimize_theta(CFG, DRIVE, state, MountGeometry(lam),
                                       (math.radians(lo), math.radians(hi)))

        def ratio(thetas):
            g = BeamGeometry(theta_odf=thetas, laser_wavelength=lam)
            return force_magnitude(g, DRIVE, CFG, state).f0 / DRIVE.gamma

        grid_theta, _ = oracles.grid_max(ratio, math.radians(lo), math.radians(hi))
        assert abs(math.degrees(theta_star - grid_theta)) < 0.01


def test_optimize_theta_is_the_turnover_clipped_to_the_window():
    hot = ThermalState(10.7)
    theta, ratio = optimize_theta(CFG, DRIVE, hot, MOUNT)
    assert theta == force_turnover_angle(CFG, hot, MOUNT.laser_wavelength)
    assert ratio == force_magnitude(replace(GEOM, theta_odf=theta), DRIVE, CFG, hot).f0 / DRIVE.gamma
    for window, edge in (((12.0, 20.0), 20.0), ((30.0, 36.0), 30.0)):
        window = tuple(math.radians(v) for v in window)
        assert optimize_theta(CFG, DRIVE, hot, MOUNT, window)[0] == math.radians(edge)
    # no turnover below the upper edge: F0 rises across the whole window
    assert optimize_theta(CFG, DRIVE, ThermalState(0.0), MOUNT)[0] == math.radians(36.0)


def test_optimize_theta_rejects_windows_outside_limits():
    for window in ((11.0, 30.0), (14.0, 37.0)):
        with pytest.raises(GeometryInfeasibleError):
            optimize_theta(CFG, DRIVE, ThermalState(1.27), MOUNT,
                           tuple(math.radians(v) for v in window))
    with pytest.raises(GeometryInfeasibleError):
        optimize_theta(CFG, DRIVE, ThermalState(1.27), MOUNT,
                       (math.radians(20.0), math.radians(20.0)))


def test_optimize_theta_boundary_for_cold_crystal():
    # cold-crystal turnover sits far above the window, so the edge wins
    theta, _ = optimize_theta(CFG, DRIVE, ThermalState(1.27), MOUNT)
    assert theta == pytest.approx(math.radians(36.0), abs=1e-9)


def test_optimize_theta_interior_for_hot_crystal():
    # hot-crystal rolloff pulls the optimum inside the window
    theta, _ = optimize_theta(CFG, DRIVE, ThermalState(10.7), MOUNT)
    assert math.radians(12.0) < theta < math.radians(36.0)
    assert math.degrees(theta) == pytest.approx(26.97, abs=0.01)


def test_optimize_theta_gamma_invariance():
    # argmax of F0/Gamma equals argmax of F0 for constant Gamma
    a, _ = optimize_theta(CFG, replace(DRIVE, gamma=50.0), ThermalState(10.7), MOUNT)
    b, _ = optimize_theta(CFG, replace(DRIVE, gamma=200.0), ThermalState(10.7), MOUNT)
    assert a == pytest.approx(b, abs=1e-9)
