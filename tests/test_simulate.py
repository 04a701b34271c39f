import math

import numpy as np
import pytest

import oracles
from odfkit import (
    BeamGeometry,
    DriftModel,
    OdfDrive,
    PathNoiseModel,
    ScanDataset,
    ThermalState,
    TrapIonConfig,
    drift_probe_signal,
    effective_wavelength,
    force_magnitude,
    ground_state_extent,
    path_noise_phase_rms,
    precession_lineshape,
    simulate_angle_drift,
    simulate_gamma_decay,
    simulate_path_noise,
    simulate_precession,
    simulate_thermometry,
    thermometry_lineshape,
)
from odfkit.simulate import _one_pole_lowpass, _sample_scan

CFG = TrapIonConfig()
GEOM = BeamGeometry(theta_odf=math.radians(28.0))
DRIVE = OdfDrive()
MU = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 30)


# -- ScanDataset container -----------------------------------------------------


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(3.0), p_up=np.zeros(2), sigma=np.ones(2))


def test_dataset_probability_invariants():
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.array([0.5, 1.2]),
                    sigma=np.ones(2), meta={"kind": "thermometry"})
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.array([0.5, 0.5]),
                    sigma=np.array([0.1, 0.0]), meta={"kind": "precession"})


@pytest.mark.parametrize("kind", ["thermometry", "drift"])
@pytest.mark.parametrize("field", ["abscissa", "p_up", "sigma"])
def test_dataset_rejects_non_finite(kind, field):
    arrays = {"abscissa": np.arange(2.0), "p_up": np.full(2, 0.5), "sigma": np.full(2, 0.1)}
    arrays[field] = np.array([0.5, math.nan])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScanDataset(meta={"kind": kind}, **arrays)


def test_dataset_time_series_allows_signed_values():
    # drift and path-noise series reuse the container without the bounds
    ds = ScanDataset(abscissa=np.arange(3.0), p_up=np.array([-1.0, 0.0, 2.0]),
                     sigma=np.zeros(3), meta={"kind": "drift"})
    assert len(ds) == 3


def test_dataset_arrays_are_read_only():
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=50, seed=1)
    with pytest.raises(ValueError):
        ds.p_up[0] = 0.3


def test_dataset_csv_round_trip(tmp_path):
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=50, seed=7)
    path = tmp_path / "scan.csv"
    ds.to_csv(path)
    back = ScanDataset.from_csv(path, kind="thermometry")
    assert np.array_equal(back.abscissa, ds.abscissa)
    assert np.array_equal(back.p_up, ds.p_up)
    assert np.array_equal(back.sigma, ds.sigma)


# -- scan simulators -------------------------------------------------------------


def test_scan_determinism():
    a = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=42)
    b = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=42)
    assert a.p_up.tobytes() == b.p_up.tobytes()
    assert a.sigma.tobytes() == b.sigma.tobytes()
    c = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=500, seed=43)
    assert a.p_up.tobytes() != c.p_up.tobytes()


def test_scan_abscissa_units():
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=10, seed=0)
    assert np.allclose(ds.abscissa, MU / (2 * math.pi))
    assert ds.meta["kind"] == "thermometry"
    assert ds.meta["shots"] == 10


def test_law_of_large_numbers():
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 8)
    truth = thermometry_lineshape(GEOM, DRIVE, CFG, ThermalState(1.27), mu)
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), mu,
                              shots=10_000_000, seed=5)
    assert np.all(np.abs(ds.p_up - truth) < 1e-3)


def test_precession_law_of_large_numbers():
    grid = np.linspace(0, 2 * math.pi, 8)
    truth = precession_lineshape(1641.5, 100.0, 500e-6, grid)
    ds = simulate_precession(1641.5, 100.0, 500e-6, grid, shots=10_000_000, seed=5)
    assert np.all(np.abs(ds.p_up - truth) < 1e-3)


def test_sigma_coverage_over_1000_seeds():
    # 1-sigma intervals contain the truth 60-75% of the time (normal regime)
    mu = CFG.omega_com + 2 * math.pi * np.linspace(-2.5e3, 2.5e3, 15)
    truth = thermometry_lineshape(GEOM, DRIVE, CFG, ThermalState(1.27), mu)
    hits = 0
    total = 0
    for seed in range(1000):
        ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), mu,
                                  shots=100, seed=seed)
        hits += int(np.sum(np.abs(ds.p_up - truth) <= ds.sigma))
        total += len(mu)
    assert 0.60 <= hits / total <= 0.75


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 5])
def test_sampler_matches_per_point_generators(seed):
    # one Philox whose counter is reset per point draws what a new
    # Philox(key=seed, counter=[0, 0, 0, i]) per point draws
    p_true = np.concatenate([[0.0, 1.0, -0.1, 1.1, 0.5],
                             np.random.default_rng(seed).random(3000)])
    ds = _sample_scan(p_true, 300, seed, np.arange(len(p_true)), "precession", {})
    assert np.array_equal(ds.p_up, oracles.per_point_binomial(p_true, 300, seed) / 300)


def test_wilson_sigma_floor():
    # truth pinned at 0 still yields a usable positive sigma
    ds = simulate_gamma_decay(0.0, np.linspace(1e-4, 5e-3, 5), shots=200, seed=0)
    assert np.all(ds.p_up == 0.0)
    assert np.allclose(ds.sigma, 1.0 / (2 * 201.0))


def test_shots_validation():
    with pytest.raises(ValueError):
        simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=0)


# -- angle drift -------------------------------------------------------------------


def test_drift_linear_rate():
    ds = simulate_angle_drift(DriftModel(linear_rate=0.002, rms_jitter=0.0), 3600.0, 10.0)
    assert ds.p_up[-1] == pytest.approx(0.002, rel=1e-12)
    assert ds.p_up[0] == 0.0


def test_drift_zero_model_is_zero():
    ds = simulate_angle_drift(DriftModel(linear_rate=0.0, rms_jitter=0.0), 1000.0, 1.0)
    assert np.all(ds.p_up == 0.0)


def test_drift_6000s_within_axis_range():
    ds = simulate_angle_drift(DriftModel(linear_rate=0.002, rms_jitter=0.0), 6000.0, 10.0)
    assert ds.p_up[-1] == pytest.approx(0.002 * 6000 / 3600, rel=1e-12)
    assert np.all(np.abs(ds.p_up) <= 6e-3)


def test_drift_jitter_deterministic():
    a = simulate_angle_drift(DriftModel(rms_jitter=1e-3, seed=9), 100.0, 1.0)
    b = simulate_angle_drift(DriftModel(rms_jitter=1e-3, seed=9), 100.0, 1.0)
    assert a.p_up.tobytes() == b.p_up.tobytes()


def test_drift_validation():
    with pytest.raises(ValueError):
        simulate_angle_drift(DriftModel(), 0.0, 1.0)
    with pytest.raises(ValueError):
        DriftModel(rms_jitter=-1e-3)


def test_drift_probe_signal_monotone_in_misalignment():
    drift = ScanDataset(abscissa=np.arange(4.0),
                        p_up=np.array([0.0, 0.01, 0.02, 0.04]),
                        sigma=np.zeros(4), meta={"kind": "drift"})
    probe = drift_probe_signal(drift, GEOM, DRIVE, CFG, ThermalState(10.7))
    baseline = 0.5 * (1 - math.exp(-2 * DRIVE.gamma * DRIVE.tau))
    assert probe.p_up[0] == pytest.approx(baseline, rel=1e-12)
    assert np.all(np.diff(probe.p_up) > 0)  # larger tilt, deeper dephasing


@pytest.mark.parametrize("delta_ac_hz,tau,n_bar,theta_deg", [
    (800.0, 500e-6, 1.27, 28.0),
    (2e4, 2e-3, 25.0, 28.0),  # deep dephasing, where np.abs and ** 2 would differ
    (5e4, 2e-3, 1.27, 28.0),
])
def test_drift_probe_matches_per_sample_loop(delta_ac_hz, tau, n_bar, theta_deg):
    # one array call reproduces the per-sample scalar evaluation bit for bit
    drift = simulate_angle_drift(DriftModel(linear_rate=1.0, rms_jitter=0.05, seed=3),
                                 6000.0, 0.5)
    drive = OdfDrive(delta_ac=2 * math.pi * delta_ac_hz, tau=tau)
    geom = BeamGeometry(theta_odf=math.radians(theta_deg))
    state = ThermalState(n_bar)
    probe = drift_probe_signal(drift, geom, drive, CFG, state)
    f0 = force_magnitude(geom, drive, CFG, state).f0
    expected = oracles.per_sample_drift_probe(drift.p_up.tolist(), f0, ground_state_extent(CFG),
                                              n_bar, drive.gamma, tau)
    assert np.array_equal(probe.p_up, expected)


# -- path noise ----------------------------------------------------------------------


def test_path_noise_zero_amplitudes():
    model = PathNoiseModel(slow_amplitude=0.0, fast_amplitude=0.0, target_rms=None)
    ds = simulate_path_noise(model, 10.0, 100.0)
    assert np.all(ds.p_up == 0.0)


def test_path_noise_rms_within_5_percent_over_100_seeds():
    for seed in range(100):
        ds = simulate_path_noise(PathNoiseModel(seed=seed), 200.0, 100.0)
        rms = math.sqrt(float(np.mean(ds.p_up ** 2)))
        assert abs(rms - 12e-9) / 12e-9 < 0.05


def test_path_noise_deterministic():
    a = simulate_path_noise(PathNoiseModel(seed=4), 50.0, 100.0)
    b = simulate_path_noise(PathNoiseModel(seed=4), 50.0, 100.0)
    assert a.p_up.tobytes() == b.p_up.tobytes()


def test_path_noise_spectral_split():
    # with the fast band off, >=80% of the variance sits below the cutoff
    model = PathNoiseModel(fast_amplitude=0.0, target_rms=None, seed=11)
    ds = simulate_path_noise(model, 400.0, 100.0)
    series = ds.p_up - ds.p_up.mean()
    spectrum = np.abs(np.fft.rfft(series)) ** 2
    freqs = np.fft.rfftfreq(len(series), d=1.0 / 100.0)
    below = spectrum[freqs <= model.slow_cutoff].sum()
    assert below / spectrum.sum() >= 0.80


@pytest.mark.parametrize("n", [1, 2, 5000])
def test_lowpass_matches_loop_oracle(n):
    walk = np.cumsum(np.random.default_rng(n).standard_normal(n))
    a = math.exp(-2.0 * math.pi * 0.1 / 100.0)
    assert np.array_equal(_one_pole_lowpass(walk, a), oracles.one_pole_lowpass(walk, a))


@pytest.mark.parametrize("seed", range(5))
def test_lowpass_matches_scipy_lfilter(seed):
    signal = pytest.importorskip("scipy.signal")
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(20_000))
    a = math.exp(-2.0 * math.pi * 0.1 / 100.0)
    expected = signal.lfilter([1.0 - a], [1.0, -a], walk)
    assert np.array_equal(_one_pole_lowpass(walk, a), expected)


def test_path_noise_validation():
    with pytest.raises(ValueError):
        simulate_path_noise(PathNoiseModel(), -1.0, 100.0)
    with pytest.raises(ValueError):
        PathNoiseModel(slow_amplitude=-1e-9)


def test_phase_rms_conversion():
    lam = effective_wavelength(GEOM)
    phi = path_noise_phase_rms(12e-9, lam)
    assert phi == pytest.approx(6.7, abs=0.5)
    assert phi == pytest.approx(360.0 * 12e-9 / lam, rel=1e-12)
    with pytest.raises(ValueError):
        path_noise_phase_rms(12e-9, 0.0)
