"""Synthetic-experiment generators: shot-noise scans and stability series.

Scan simulation draws per-point binomial counts from the noiseless
lineshapes into a `ScanDataset`; every point gets its own counter-based RNG
substream derived from (seed, point index), so datasets are reproducible
byte-for-byte and independent of evaluation order.  The stability generators
return a `Series` and model the slow angular drift and the differential
beam-path fluctuation of the in-bore optics, the latter always rescaled to
TARGET_RMS.  The path noise's low-pass gives the bits of a loop over the
samples in order; a long series runs it as vectorized chains, each checked
against the loop's value at its start (`_one_pole_lowpass`).  Both containers
live in `csvio`.  Shots, seed and run parameters are plain arguments without
defaults: the CLI's flags own those.
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


# The low-pass runs as chains of L = ceil(CHAIN_DECAY / -ln a) steps, so that a start
# value's error decays by e^-13 over a chain.  13 is the smallest CHAIN_DECAY at which
# no 600k-sample walk (20-40 seeds at 0.5, 3, 10 and 100 Hz) needed a fallback block;
# at 12 one walk at 0.5 Hz and one at 3 Hz did.  On a 2-vCPU Xeon with numpy 2.4,
# chains pay ~2.7 us a step and the loop ~0.09 us a sample, so the two cost the same
# at ~32 blocks, at 10, 100 and 1000 Hz alike.  CHAIN_MIN_BLOCKS is twice that:
# fig5's 20k samples at 100 Hz (9 blocks) take the loop.
CHAIN_DECAY = 13.0
CHAIN_MIN_BLOCKS = 64


def _run_lowpass(out, x, a, lo, hi, y):
    """The loop: out[lo:hi] = y[lo:hi], given y = y[lo - 1].

    One list comprehension per 2048 samples, each step (b x[i]) + a y in that order.
    """
    b = 1.0 - a
    for s in range(lo, hi, 2048):
        e = min(s + 2048, hi)
        out[s:e] = [y := u + a * y for u in (b * x[s:e]).tolist()]


def _one_pole_lowpass(x, a):
    """y[i] = (1 - a) x[i] + a y[i-1] with y[-1] = 0, bit-equal to a loop in input order.

    For 0 < a < 1 and at least CHAIN_MIN_BLOCKS blocks of L samples, block k is
    one of B chains that run in lockstep, two ufunc calls a step over B values.
    Chain k starts from its own estimate of y[kL - 1]: a warm-up over block k - 1
    from the estimate of y[(k - 1)L - 1], itself a matrix-vector product and a
    carry over the blocks.  A chain is a function of its start value, so when
    that start has the bits of the true y[kL - 1] every value of the block is the
    loop's.  Walking k upward, each start is compared with the final y[kL - 1]
    as uint64 (so -0.0, 0.0 and NaNs are told apart), and a block that fails is
    recomputed by the loop, as are the tail and every other input.  The result
    is a new array; x is left as it was.
    """
    n = len(x)
    out = np.empty(n)
    size = math.ceil(CHAIN_DECAY / -math.log(a)) if 0.0 < a < 1.0 else n + 1
    blocks = n // size
    if blocks < CHAIN_MIN_BLOCKS:
        _run_lowpass(out, x, a, 0, n, 0.0)
        return out
    with np.errstate(all="ignore"):  # the loop's float steps raise on no value either
        np.multiply(x, 1.0 - a, out=out)  # u, the loop's b x[i]
        u = out[:blocks * size].reshape(blocks, size)
        decay = a ** size
        e = 0.0
        estimate = [e := decay * e + s for s in (u @ a ** np.arange(size - 1, -1, -1.0)).tolist()]
        start = np.zeros(blocks)  # chain 0 starts from y[-1] = 0.0, chain 1's warm-up too
        start[2:] = estimate[:-2]
        warm = start[1:]
        for col in u[:-1].T:  # warm-up: chain k runs block k - 1 in start[k]
            np.multiply(a, warm, out=warm)
            np.add(col, warm, out=warm)
        prev, scaled = start, np.empty(blocks)
        for col in u.T:  # main pass: chain k runs block k, in place over u
            np.multiply(a, prev, out=scaled)
            np.add(col, scaled, out=col)
            prev = col
    ends = out[size - 1:(blocks - 1) * size:size].view(np.uint64)  # y[kL - 1], k >= 1
    starts = warm.view(np.uint64)
    done = 0
    for k in (np.flatnonzero(ends != starts) + 1).tolist():
        while done < k < blocks and starts[k - 1] != ends[k - 1]:
            _run_lowpass(out, x, a, k * size, (k + 1) * size, float(out[k * size - 1]))
            k += 1
        done = max(done, k)
    _run_lowpass(out, x, a, blocks * size, n, float(out[blocks * size - 1]))
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
