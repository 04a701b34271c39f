"""Synthetic-experiment generators: shot-noise scans and stability series.

Scan simulation draws per-point binomial counts from the noiseless
lineshapes into a `ScanDataset`; every point gets its own counter-based RNG
substream derived from (seed, point index), so datasets are reproducible
byte-for-byte and independent of evaluation order.  The stability generators
return a `Series` and model the slow angular drift and the differential
beam-path fluctuation of the in-bore optics, the latter always rescaled to
TARGET_RMS.  Both containers live in `csvio`.  Shots, seed and run parameters
are plain arguments without defaults: the CLI's flags own those.
"""

from __future__ import annotations

import math

import numpy as np

from .core import OdfDrive, ThermalState, TrapIonConfig
from .csvio import ScanDataset, Series
from .geometry import BeamGeometry
from .interactions import gamma_decay_lineshape, precession_lineshape, thermometry_model

SLOW_AMPLITUDE = 20e-9  # m, RMS of the path-noise slow band
SLOW_CUTOFF = 0.1  # Hz, the slow band's low-pass cutoff, well below 1 Hz
FAST_AMPLITUDE = 5e-9  # m, RMS of the white fast band
TARGET_RMS = 12e-9  # m, RMS of the summed path-noise series
JITTER_BLOCK = 2 ** 16  # drift jitter values drawn per Generator call: 0.5 MiB
MAX_SAMPLES = np.iinfo(np.intp).max // 8  # the most float64 values one array holds


def _sample_scans(shots, scans):
    """ScanDatasets of stream v1 draws, one per (p_true, seed, abscissa, kind, meta_extra).

    p_true is clipped to [0, 1]; all scans are drawn together, in one kernel call.
    """
    from . import _stream_v1  # here, not at the top: commands that draw no scan skip its compile

    if not 1 <= shots <= 2 ** 63 - 1:
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    sizes = [len(scan[0]) for scan in scans]
    p = np.concatenate([np.asarray(scan[0], dtype=float) for scan in scans])
    np.clip(p, 0.0, 1.0, out=p)
    starts = np.cumsum([0] + sizes[:-1])
    counts = _stream_v1.counts(p, shots, [scan[1] for scan in scans], starts)
    del p  # freed before p_hat and sigma are made
    datasets = []
    for (_, seed, abscissa, kind, meta_extra), part in zip(scans, np.split(counts, starts[1:])):
        p_hat = part / shots
        # standard error, with a Wilson-interval floor where p_hat is 0 or 1
        sigma = np.where((p_hat == 0.0) | (p_hat == 1.0), 1.0 / (2.0 * (shots + 1.0)),
                         np.sqrt(p_hat * (1.0 - p_hat) / shots))
        meta = {"kind": kind, "seed": seed, "shots": shots, **meta_extra}
        datasets.append(ScanDataset(abscissa=abscissa, p_up=p_hat, sigma=sigma, meta=meta))
    return datasets


def simulate_thermometry(
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
    mu_grid,
    shots: int,
    seed: int,
) -> ScanDataset:
    """Shot-noise-limited thermometry scan; abscissa stored as mu/2pi in Hz."""
    mu = np.asarray(mu_grid, dtype=float)
    p_true = thermometry_model(mu, cfg.omega_com, state.n_bar, geom, drive, cfg)
    extra = {
        "omega_com_hz": cfg.omega_com / (2 * math.pi),
        "n_bar": state.n_bar,
        "theta_odf_deg": math.degrees(geom.theta_odf),
    }
    return _sample_scans(shots, [(p_true, seed, mu / (2 * math.pi), "thermometry", extra)])[0]


def simulate_precession(
    j_bar: float,
    gamma: float,
    tau: float,
    theta1_grid,
    shots: int,
    seed: int,
) -> ScanDataset:
    """Shot-noise-limited tipping-angle scan; abscissa is theta1 in rad."""
    return _precession_scans([j_bar], gamma, tau, theta1_grid, shots, [seed])[0]


def _precession_scans(j_bars, gamma, tau, theta1_grid, shots, seeds):
    """simulate_precession at each (j_bar, seed) pair, all drawn in one kernel call."""
    theta1 = np.asarray(theta1_grid, dtype=float)
    return _sample_scans(shots, [(precession_lineshape(j_bar, gamma, tau, theta1), seed, theta1,
                                  "precession", {"j_bar": j_bar, "gamma": gamma, "tau": tau})
                                 for j_bar, seed in zip(j_bars, seeds)])


def simulate_gamma_decay(
    gamma: float,
    tau_grid,
    shots: int,
    seed: int,
) -> ScanDataset:
    """Far-detuned decoherence scan P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""
    tau = np.asarray(tau_grid, dtype=float)
    p_true = gamma_decay_lineshape(gamma, tau)
    return _sample_scans(shots, [(p_true, seed, tau, "gamma", {"gamma": gamma})])[0]


def simulate_angle_drift(duration: float, dt: float, linear_rate: float, rms_jitter: float,
                         seed: int) -> Series:
    """dtheta(t) in degrees over [0, duration]: linear_rate deg/h plus white rms_jitter deg."""
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be > 0")
    if rms_jitter < 0:
        raise ValueError("rms_jitter must be >= 0")
    if not (duration + 0.5 * dt) / dt <= MAX_SAMPLES:  # np.arange's count; inf fails too
        raise ValueError(f"duration {duration:g} s at dt {dt:g} s gives more samples than "
                         "one array holds")
    t = np.arange(0.0, duration + 0.5 * dt, dt)
    drift = linear_rate * t
    drift /= 3600.0
    if rms_jitter > 0:
        # drawn a block at a time: the Generator's stream is the same as in one call,
        # and t and drift stay the only arrays of their length
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed % 2 ** 64)))
        for start in range(0, len(drift), JITTER_BLOCK):
            block = drift[start:start + JITTER_BLOCK]  # a view: += writes into drift
            jitter = rng.standard_normal(len(block))
            jitter *= rms_jitter
            block += jitter
    meta = {"kind": "drift", "seed": seed, "linear_rate_deg_per_h": linear_rate,
            "rms_jitter_deg": rms_jitter}
    return Series(t=t, value=drift, meta=meta)


def _one_pole_lowpass(x, a):
    """y[i] = (1 - a) x[i] + a y[i-1] with y[-1] = 0, in input order.

    One list comprehension per block of 2048 samples, with y carried across blocks;
    each step is (b x[i]) + a y, in that order, so y is bit-equal to a loop's.
    """
    b = 1.0 - a
    out = np.empty(len(x))
    y = 0.0
    step = 2048  # values per list
    for s in range(0, len(x), step):
        out[s:s + step] = [y := u + a * y for u in (b * x[s:s + step]).tolist()]
    return out


def simulate_path_noise(duration: float, rate: float, seed: int) -> Series:
    """Differential path-length series dl(t), meters, sampled at `rate`.

    Slow band: a random walk through a one-pole low-pass at SLOW_CUTOFF,
    scaled to SLOW_AMPLITUDE RMS.  Fast band: white at FAST_AMPLITUDE RMS.
    The sum is rescaled to TARGET_RMS RMS.
    """
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be > 0")
    where = f"duration {duration:g} s at sample rate {rate:g} Hz"
    if not duration * rate <= MAX_SAMPLES:  # inf fails too
        raise ValueError(f"{where} gives more samples than one array holds")
    n = int(round(duration * rate))
    if n < 1:
        raise ValueError(f"{where} gives no samples")
    dt = 1.0 / rate
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed % 2 ** 64)))
    # in place wherever that keeps the bits: at most two arrays of n at once
    walk = rng.standard_normal(n)
    np.cumsum(walk, out=walk)
    slow = _one_pole_lowpass(walk, math.exp(-2.0 * math.pi * SLOW_CUTOFF * dt))
    del walk
    slow -= slow.mean()
    rms = math.sqrt(float(np.mean(slow * slow)))
    if rms > 0:
        slow *= SLOW_AMPLITUDE / rms
        slow += 0.0  # the series is 0.0 + slow, as a sum from zeros: -0.0 turns to 0.0
        series = slow
    else:  # one sample has no slow band
        series = np.zeros(n)
    del slow
    fast = rng.standard_normal(n)
    fast *= FAST_AMPLITUDE
    series += fast
    del fast
    rms = math.sqrt(float(np.mean(series * series)))
    if rms > 0:
        series *= TARGET_RMS / rms
    t = np.arange(n, dtype=float)
    t *= dt
    meta = {"kind": "pathnoise", "seed": seed, "rate_hz": rate, "target_rms_m": TARGET_RMS}
    return Series(t=t, value=series, meta=meta)
