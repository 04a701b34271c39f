"""Synthetic-experiment generators: shot-noise scans and stability series.

Scan simulation draws per-point binomial counts from the noiseless
lineshapes; every point gets its own counter-based RNG substream derived
from (seed, point index), so datasets are reproducible byte-for-byte and
independent of evaluation order.  The stability generators model the slow
angular drift and the differential beam-path fluctuation reported for the
in-bore optics.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import OdfDrive, ThermalState, TrapIonConfig
from .geometry import BeamGeometry
from .interactions import (
    force_magnitude,
    gamma_decay_lineshape,
    loop_phases,
    precession_lineshape,
    thermometry_lineshape,
)

_PROBABILITY_KINDS = {"thermometry", "precession", "gamma"}


@dataclass(frozen=True)
class ScanDataset:
    """Abscissa / ordinate / sigma triples plus provenance metadata.

    For probability scans the abscissa is mu/2pi in Hz (thermometry),
    theta1 in rad (precession) or tau in s (gamma decay); p_up and sigma
    are then bounded fractions and standard errors.  Time series (drift,
    path noise) reuse the container with p_up holding the series values
    and sigma zeros.
    """

    abscissa: np.ndarray
    p_up: np.ndarray
    sigma: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        abscissa = np.asarray(self.abscissa, dtype=float)
        p_up = np.asarray(self.p_up, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (len(abscissa) == len(p_up) == len(sigma)):
            raise ValueError("abscissa, p_up, sigma must have equal lengths")
        for name, arr in (("abscissa", abscissa), ("p_up", p_up), ("sigma", sigma)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if self.meta.get("kind") in _PROBABILITY_KINDS:
            if np.any((p_up < 0) | (p_up > 1)):
                raise ValueError("p_up must lie in [0, 1]")
            if np.any(sigma <= 0):
                raise ValueError("sigma must be > 0 elementwise")
        for name, arr in (("abscissa", abscissa), ("p_up", p_up), ("sigma", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.abscissa)

    def to_csv(self, path):
        """Write header + rows; full-precision scientific notation."""
        kind = self.meta.get("kind", "")
        if kind in _PROBABILITY_KINDS:
            header = ["abscissa", "p_up", "sigma"]
            cols = (self.abscissa, self.p_up, self.sigma)
        else:
            header = ["t_s", "value"]
            cols = (self.abscissa, self.p_up)
        _write_rows(path, header, zip(*cols))

    @classmethod
    def from_csv(cls, path, kind=None):
        """Read a CSV written by to_csv; a malformed file is a ValueError naming it."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            try:
                rows = [[float(v) for v in row] for row in reader if row]
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
        if header is None or not rows:
            raise ValueError(f"{path}: no data rows")
        if len(header) < 2 or any(len(row) != len(header) for row in rows):
            raise ValueError(f"{path}: every row must have as many fields as the header, "
                             "at least 2")
        data = np.asarray(rows, dtype=float)
        meta = {"kind": kind, "source": str(path)} if kind else {"source": str(path)}
        sigma = data[:, 2] if len(header) >= 3 else np.zeros(len(data))
        try:
            return cls(abscissa=data[:, 0], p_up=data[:, 1], sigma=sigma, meta=meta)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def _write_rows(path, header, rows):
    """The one CSV writer: header, then rows with floats as f"{v:.17e}"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17e}" if isinstance(v, float) else v for v in row])


@dataclass(frozen=True)
class DriftModel:
    """Slow angular drift of the beam pair: linear trend plus white jitter."""

    linear_rate: float = 0.002  # degrees per hour
    rms_jitter: float = 0.0  # degrees, white per sample
    seed: int = 0

    def __post_init__(self):
        if self.rms_jitter < 0:
            raise ValueError("rms_jitter must be >= 0")


@dataclass(frozen=True)
class PathNoiseModel:
    """Differential beam-path fluctuation: slow band plus white fast band."""

    slow_amplitude: float = 20e-9  # m
    slow_cutoff: float = 0.1  # Hz, well below 1 Hz
    fast_amplitude: float = 5e-9  # m
    target_rms: float | None = 12e-9  # m; None leaves the raw sum unscaled
    seed: int = 0

    def __post_init__(self):
        if self.slow_amplitude < 0 or self.fast_amplitude < 0:
            raise ValueError("amplitudes must be >= 0")


def _sample_scan(p_true, shots, seed, abscissa, kind, meta_extra):
    """Draw point i from Philox keyed by seed at counter [0, 0, 0, i].

    One bit generator serves the whole scan: before each draw it gets back
    its fresh state (empty buffer) with the counter set to the point index,
    which is the state of a new Philox(key=seed, counter=[0, 0, 0, i]).
    """
    bitgen = np.random.Philox(key=np.uint64(seed % 2 ** 64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    counts = np.empty(len(p_true), dtype=np.int64)
    for i, p in enumerate(np.clip(p_true, 0.0, 1.0)):
        counter[3] = i
        bitgen.state = state
        counts[i] = rng.binomial(shots, p)
    p_hat = counts / shots
    # standard error, with a Wilson-interval floor where p_hat is 0 or 1
    sigma = np.where((p_hat == 0.0) | (p_hat == 1.0), 1.0 / (2.0 * (shots + 1.0)),
                     np.sqrt(p_hat * (1.0 - p_hat) / shots))
    meta = {"kind": kind, "seed": seed, "shots": shots}
    meta.update(meta_extra)
    return ScanDataset(abscissa=np.asarray(abscissa, float), p_up=p_hat,
                       sigma=sigma, meta=meta)


def simulate_thermometry(
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
    mu_grid,
    shots: int = 500,
    seed: int = 0,
) -> ScanDataset:
    """Shot-noise-limited thermometry scan; abscissa stored as mu/2pi in Hz."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    mu = np.asarray(mu_grid, dtype=float)
    p_true = thermometry_lineshape(geom, drive, cfg, state, mu)
    extra = {
        "omega_com_hz": cfg.omega_com / (2 * math.pi),
        "n_bar": state.n_bar,
        "theta_odf_deg": math.degrees(geom.theta_odf),
    }
    return _sample_scan(p_true, shots, seed, mu / (2 * math.pi), "thermometry", extra)


def simulate_precession(
    j_bar: float,
    gamma: float,
    tau: float,
    theta1_grid,
    shots: int = 500,
    seed: int = 0,
) -> ScanDataset:
    """Shot-noise-limited tipping-angle scan; abscissa is theta1 in rad."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    theta1 = np.asarray(theta1_grid, dtype=float)
    p_true = precession_lineshape(j_bar, gamma, tau, theta1)
    extra = {"j_bar": j_bar, "gamma": gamma, "tau": tau}
    return _sample_scan(p_true, shots, seed, theta1, "precession", extra)


def simulate_gamma_decay(
    gamma: float,
    tau_grid,
    shots: int = 500,
    seed: int = 0,
) -> ScanDataset:
    """Far-detuned decoherence scan P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    tau = np.asarray(tau_grid, dtype=float)
    p_true = gamma_decay_lineshape(gamma, tau)
    return _sample_scan(p_true, shots, seed, tau, "gamma", {"gamma": gamma})


def simulate_angle_drift(model: DriftModel, duration: float, dt: float) -> ScanDataset:
    """Angular misalignment series dtheta(t), degrees, over [0, duration]."""
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be > 0")
    t = np.arange(0.0, duration + 0.5 * dt, dt)
    drift = model.linear_rate * t / 3600.0
    if model.rms_jitter > 0:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(model.seed % 2 ** 64)))
        drift = drift + model.rms_jitter * rng.standard_normal(len(t))
    meta = {"kind": "drift", "seed": model.seed, "linear_rate_deg_per_h": model.linear_rate,
            "rms_jitter_deg": model.rms_jitter}
    return ScanDataset(abscissa=t, p_up=drift, sigma=np.zeros(len(t)), meta=meta)


def drift_probe_signal(
    drift: ScanDataset,
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
) -> ScanDataset:
    """Convert an angle-drift series to the P_up probe measured on the ions.

    Calibration model of the stability measurement: a tilt dtheta puts the
    in-plane component delta_k sin(dtheta) of the lattice on the rotating
    crystal, modeled as an effective force F0 sin(dtheta) on the mode at
    the probe detuning delta = pi / tau (the lineshape peak); the crystal
    rotation frequency does not enter.
    """
    strengths = force_magnitude(geom, drive, cfg, state)
    delta_probe = math.pi / drive.tau
    baseline = math.exp(-2.0 * drive.gamma * drive.tau)
    f0_eff = strengths.f0 * np.abs(np.sin(np.radians(drift.p_up)))
    phases = loop_phases(f0_eff, cfg, delta_probe, drive.tau, "spin_echo")
    # in scalar arithmetic: np.abs, ** 2 and np.exp on arrays can each differ
    # by 1 ulp from abs (hypot), pow and math.exp
    occupation = 2.0 * state.n_bar + 1.0
    c_sm = np.fromiter((math.exp(-2.0 * abs(a) ** 2 * occupation)
                        for a in phases.alpha_total.tolist()), float, len(drift))
    p = 0.5 * (1.0 - baseline * c_sm)
    meta = dict(drift.meta)
    meta["kind"] = "drift_probe"
    return ScanDataset(abscissa=drift.abscissa, p_up=p, sigma=np.zeros(len(p)), meta=meta)


def _one_pole_lowpass(x, a):
    """y[i] = (1 - a) x[i] + a y[i-1] with y[-1] = 0, in input order."""
    b = 1.0 - a
    return np.fromiter(itertools.accumulate((b * x).tolist(), lambda y, u: u + a * y),
                       float, len(x))


def simulate_path_noise(model: PathNoiseModel, duration: float, rate: float) -> ScanDataset:
    """Differential path-length series dl(t), meters, sampled at `rate`.

    Slow band: a random walk through a one-pole low-pass at slow_cutoff,
    scaled to slow_amplitude RMS.  Fast band: white at fast_amplitude RMS.
    The sum is rescaled to target_rms when set.
    """
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be > 0")
    n = int(round(duration * rate))
    dt = 1.0 / rate
    t = np.arange(n) * dt
    rng = np.random.Generator(np.random.Philox(key=np.uint64(model.seed % 2 ** 64)))
    series = np.zeros(n)
    if model.slow_amplitude > 0:
        walk = np.cumsum(rng.standard_normal(n))
        a = math.exp(-2.0 * math.pi * model.slow_cutoff * dt)
        slow = _one_pole_lowpass(walk, a)
        slow -= slow.mean()
        rms = math.sqrt(float(np.mean(slow * slow)))
        if rms > 0:
            series += slow * (model.slow_amplitude / rms)
    if model.fast_amplitude > 0:
        series += model.fast_amplitude * rng.standard_normal(n)
    if model.target_rms is not None:
        rms = math.sqrt(float(np.mean(series * series)))
        if rms > 0:
            series *= model.target_rms / rms
    meta = {"kind": "pathnoise", "seed": model.seed, "rate_hz": rate,
            "target_rms_m": model.target_rms}
    return ScanDataset(abscissa=t, p_up=series, sigma=np.zeros(n), meta=meta)


def path_noise_phase_rms(delta_l_rms: float, lambda_odf: float) -> float:
    """Beat-note phase RMS in degrees: 360 * dl_rms / lambda_odf."""
    if lambda_odf <= 0:
        raise ValueError("lambda_odf must be > 0")
    return 360.0 * delta_l_rms / lambda_odf
