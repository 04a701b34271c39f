import math
import warnings

import numpy as np
import pytest

import oracles
from odfkit import fitting
from odfkit.configio import load_config
from odfkit.core import ThermalState, replace
from odfkit.fitting import (
    FitInputError,
    _fit,
    fit_f0_sq,
    fit_far_detuned_gamma,
    fit_precession,
    fit_thermometry,
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
from odfkit.simulate import (
    _precession_scans,
    _sample_scans,
    simulate_precession,
    simulate_thermometry,
)

SCN = load_config()  # the default config
CFG = SCN.trap
GEOM = SCN.beams  # 28 degrees
DRIVE = SCN.drive
MOUNT = SCN.mount  # the 12-36 degree window
MU = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 30)
DELTAS = [2 * math.pi * d for d in (1.5e3, 2.0e3, 3.0e3)]  # fig4c's detunings
THETA1 = np.linspace(0, 2 * math.pi, 40)


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


def _f0_sq(x, params, jac=False):
    # fit_f0_sq's model on x, one third of it per detuning: jbar = c_k F0^2 on scan k
    c = np.repeat([j_bar(1.0, CFG, d) for d in DELTAS], len(x) // 3)
    out = precession_lineshape(c * params[0], 100.0, 500e-6, x, jac=jac)
    return (out[0], out[1] * c[:, None]) if jac else out


def _exact_scans(f0, theta1=THETA1):
    return [ScanDataset(abscissa=theta1, p_up=precession_lineshape(
                j_bar(f0, CFG, d), 100.0, 500e-6, theta1), sigma=np.full(len(theta1), 1e-3))
            for d in DELTAS]


def _drawn_scans(f0s, seeds, deltas=DELTAS):
    """One 500-shot scan per (F0, detuning), seed seeds[i] + k at detuning k, in one call."""
    scans = _precession_scans([j_bar(f0, CFG, d) for f0 in f0s for d in deltas], 100.0, 500e-6,
                              THETA1, 500, [s + k for s in seeds for k in range(len(deltas))])
    return [scans[i:i + len(deltas)] for i in range(0, len(scans), len(deltas))]


def _check_jacobian(model, x, params, rel_steps):
    """Central finite differences of model(x, p) against model(x, p, jac=True).

    Comparison is elementwise at 1e-5 relative with the denominator floored
    at a small fraction of the column scale, which keeps near-zero entries
    from amplifying finite-difference roundoff.
    """
    _, analytic = model(x, params, jac=True)
    assert analytic.shape == (len(x), len(params))
    for k, rel in enumerate(rel_steps):
        h = rel * max(abs(params[k]), 1e-300)  # F0^2 in N^2 is ~1e-46
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
    # the joint fit's jbar has one value per point; its derivative carries the c_k
    _check_jacobian(_f0_sq, np.tile(grid, 3), (1.2e-23 ** 2,), rel_steps=(1e-6,))


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


def test_weighted_f0_frozen_example():
    # F0 from fig4c's three detunings, one joint F0^2 fit over three exact lineshapes
    for f0 in (6e-24, 1.2e-23, 1.8e-23):
        result = fit_f0_sq(_exact_scans(f0), 100.0, 500e-6, CFG, DELTAS)
        assert result.converged and result.flags == ()
        assert result.params["f0_sq"] == pytest.approx(f0 * f0, rel=1e-9)


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


def test_weighted_f0_permutation_invariant():
    # the joint F0^2 fit with its (scan, detuning) pairs in another order
    scans = _drawn_scans([1.2e-23], [8])[0]
    a = fit_f0_sq(scans, 100.0, 500e-6, CFG, DELTAS)
    b = fit_f0_sq(scans[::-1], 100.0, 500e-6, CFG, DELTAS[::-1])
    assert b.params["f0_sq"] == pytest.approx(a.params["f0_sq"], rel=1e-9)
    assert b.sigmas["f0_sq"] == pytest.approx(a.sigmas["f0_sq"], rel=1e-9)


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


def test_fit_evaluates_each_point_once_with_its_derivative():
    # one plain call per start, then one jac=True call at the chosen start and one per
    # trial, accepted or not; the last call is the optimum's, so none follows the loop
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=0)
    starts = [(CFG.omega_com + 2 * math.pi * d, n) for d in (700.0, -400.0) for n in (15.0, 5.0)]
    calls = []

    def model(x, p, jac=False):
        calls.append((jac, tuple(float(v) for v in p)))
        return _thermometry(x, p, jac=jac)

    result = _fit(("omega_com", "n_bar"), model, ds.abscissa * 2 * math.pi, ds, starts)
    assert result.converged
    ranked, walked = calls[:len(starts)], calls[len(starts):]
    assert ranked == [(False, start) for start in starts]
    assert all(jac for jac, _ in walked)
    points = [p for _, p in walked]
    costs = [float(np.sum(((ds.p_up - _thermometry(ds.abscissa * 2 * math.pi, s)) / ds.sigma) ** 2))
             for s in starts]
    assert points[0] == starts[int(np.argmin(costs))]
    assert len(set(points)) == len(points)
    assert points[-1] == tuple(result.params.values())
    assert len(points) > 1 + result.iterations  # a trial was rejected, and cost a call too


@pytest.mark.parametrize("fit,n,counts", [
    ("thermometry", 30, (12, 6)),
    ("thermometry", 100_000, (12, 9)),
    ("precession", 100_000, (4, 4)),
], ids=["thermometry-30", "thermometry-1e5", "precession-1e5"])
def test_fit_model_calls_are_pinned(monkeypatch, fit, n, counts):
    # (plain, jac=True) model calls: the starts ranked, then the chosen start and each trial
    calls = []

    def counting(function):
        def wrapper(*args, jac=False):
            calls.append(jac)
            return function(*args, jac=jac)
        return wrapper

    if fit == "thermometry":
        state, seed, grid = (ThermalState(1.27), 0, MU) if n == 30 else (
            ThermalState(2.512), 39388294, 2 * math.pi * np.linspace(1097e3, 1103e3, n))
        ds = simulate_thermometry(GEOM, DRIVE, CFG, state, grid, shots=500, seed=seed)
        monkeypatch.setattr(fitting, "thermometry_model", counting(thermometry_model))
        result = fit_thermometry(ds, GEOM, DRIVE, CFG)
    else:
        jb = force_magnitude(GEOM, DRIVE, CFG, ThermalState(1.27)).j_bar
        ds = simulate_precession(jb, DRIVE.gamma, DRIVE.tau, np.radians(np.linspace(0, 350, n)),
                                 shots=500, seed=11)
        monkeypatch.setattr(fitting, "precession_lineshape", counting(precession_lineshape))
        result = fit_precession(ds, DRIVE.gamma, DRIVE.tau)
    assert result.converged
    assert (calls.count(False), calls.count(True)) == counts


def test_thermometry_model_is_infinite_outside_its_domain_with_jac(monkeypatch):
    # a trial outside the domain is rejected whether it is evaluated plain or with jac=True
    ds = _thermometry_dataset()
    models = []
    monkeypatch.setattr(fitting, "_fit", lambda names, model, *args, **kw: models.append(model))
    fit_thermometry(ds, GEOM, DRIVE, CFG)
    mu = 2 * math.pi * ds.abscissa
    for omega_com in (-CFG.omega_com, 0.0, 3.0 * mu.max()):
        values, d = models[0](mu, np.array([omega_com, 1.0]), jac=True)
        assert d.shape == (len(mu), 2)
        assert np.isposinf(values).all() and np.isposinf(d).all()
        assert np.isposinf(models[0](mu, np.array([omega_com, 1.0]))).all()


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


# -- joint F0^2 fit --------------------------------------------------------------------


def test_f0_sq_of_one_scan_is_fit_precession_over_c():
    # jbar = c F0^2 is linear in F0^2: one scan has the same optimum, scaled by 1/c,
    # and a negative detuning fits a negative jbar with F0^2 > 0
    for delta in (DELTAS[1], -DELTAS[1]):
        scan = _drawn_scans([1.2e-23], [3], deltas=[delta])[0][0]
        joint = fit_f0_sq([scan], 100.0, 500e-6, CFG, [delta])
        single = fit_precession(scan, 100.0, 500e-6)
        c = j_bar(1.0, CFG, delta)
        assert single.params["j_bar"] * delta > 0
        assert joint.params["f0_sq"] == pytest.approx(single.params["j_bar"] / c, rel=1e-6)
        assert joint.sigmas["f0_sq"] == pytest.approx(single.sigmas["j_bar"] / abs(c), rel=1e-6)


def test_f0_sq_sigma_shrinks_with_scans():
    scans = _drawn_scans([1.2e-23], [5])[0]
    sigmas = [fit_f0_sq(scans[:k], 100.0, 500e-6, CFG, DELTAS[:k]).sigmas["f0_sq"]
              for k in (1, 2, 3)]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def test_f0_sq_validation():
    scans = _exact_scans(1.2e-23)
    for scans_, deltas in (([], []), (scans, DELTAS[:2])):
        with pytest.raises(FitInputError, match="^need one detuning per scan"):
            fit_f0_sq(scans_, 100.0, 500e-6, CFG, deltas)
    flat = _exact_scans(1.2e-23, theta1=np.zeros(3))
    with pytest.raises(FitInputError, match="^need at least 2 distinct theta1 values$"):
        fit_f0_sq(flat, 100.0, 500e-6, CFG, DELTAS)


def test_f0_sq_pulls_are_calibrated():
    # simulation-based calibration over 20 seeds of fig4c's 10 rows at 500 shots
    geom = replace(GEOM, theta_odf=np.radians([14.0, 17.0, 20.0, 24.0, 28.0]))
    drive = replace(DRIVE, delta_ac=2 * math.pi * 2.5e3)
    f0s = [f0 for n_bar in (10.7, 1.27)
           for f0 in force_magnitude(geom, drive, CFG, ThermalState(n_bar)).f0.tolist()]
    rows = [(f0, 100 * seed + 3 * i) for seed in range(20) for i, f0 in enumerate(f0s)]
    pulls = []
    for (f0, _), scans in zip(rows, _drawn_scans(*zip(*rows))):
        result = fit_f0_sq(scans, 100.0, 500e-6, CFG, DELTAS)
        assert result.converged and result.flags == ()
        pulls.append((result.params["f0_sq"] - f0 * f0) / result.sigmas["f0_sq"])
    assert abs(np.mean(pulls)) < 0.5
    assert 0.7 < np.std(pulls, ddof=1) < 1.3


_SIGMA_WEIGHTS = pytest.mark.xfail(strict=True, reason="σ-column weights, ROADMAP item 1")


@pytest.mark.parametrize("model", [pytest.param("thermometry", marks=_SIGMA_WEIGHTS),
                                   "precession", pytest.param("gamma", marks=_SIGMA_WEIGHTS)])
def test_pulls_are_calibrated_on_2e4_point_scans(model):
    # simulation-based calibration on the default scenario: 40 scans of 2e4 points at
    # 500 shots, seeds 0-39, drawn in one call; each scan's fit gives one pull
    n = 20_000
    if model == "thermometry":
        mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, n)
        x, p_true = mu / (2 * math.pi), thermometry_model(mu, CFG.omega_com, 1.27, GEOM, DRIVE, CFG)
        name, truth, fit, args = "n_bar", 1.27, fit_thermometry, (GEOM, DRIVE, CFG)
    elif model == "precession":
        truth = force_magnitude(GEOM, DRIVE, CFG, SCN.thermal).j_bar
        x = np.linspace(0, 2 * math.pi, n)
        p_true = precession_lineshape(truth, DRIVE.gamma, DRIVE.tau, x)
        name, fit, args = "j_bar", fit_precession, (DRIVE.gamma, DRIVE.tau)
    else:
        truth = 100.0
        x = np.linspace(0.05, 1.0, n) / truth
        p_true = gamma_decay_lineshape(truth, x)
        name, fit, args = "gamma", fit_far_detuned_gamma, ()
    scans = _sample_scans(500, [(p_true, seed, x, model, {}) for seed in range(40)])
    pulls = [(result.params[name] - truth) / result.sigmas[name]
             for result in (fit(scan, *args) for scan in scans)]
    assert abs(np.mean(pulls)) < 0.5
    assert 0.7 < np.std(pulls, ddof=1) < 1.3


def test_fit_projects_a_start_below_the_bound():
    # the start -0.3 is the unconstrained optimum, below the bound: the fit ends at the
    # bound, flagged, whether or not a step from the start is accepted
    x = np.linspace(0.0, 1.0, 10)
    data = ScanDataset(abscissa=x, p_up=0.5 - 0.3 * x, sigma=np.full(10, 0.01))

    def model(x, p, jac=False):
        return (0.5 + p[0] * x, x[:, None]) if jac else 0.5 + p[0] * x

    result = _fit(("a",), model, x, data, [(-0.3,)], lower=(0.0,))
    assert result.params["a"] >= 0.0
    assert "bound_active" in result.flags


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
