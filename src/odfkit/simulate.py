"""Synthetic-experiment generators: shot-noise scans and stability series.

Scan simulation draws per-point binomial counts from the noiseless
lineshapes into a `ScanDataset`; every point gets its own counter-based RNG
substream derived from (seed, point index), so datasets are reproducible
byte-for-byte and independent of evaluation order.  The stability
generators return a `Series` and model the slow angular drift and the
differential beam-path fluctuation reported for the in-bore optics.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import OdfDrive, ThermalState, TrapIonConfig
from .geometry import BeamGeometry
from .interactions import gamma_decay_lineshape, precession_lineshape, thermometry_model


def _freeze_arrays(obj, names):
    """Set the named fields to read-only float views (not copies), equal-length and finite."""
    arrays = [np.asarray(getattr(obj, name), dtype=float).view() for name in names]
    if len({len(arr) for arr in arrays}) > 1:
        raise ValueError(f"{', '.join(names)} must have equal lengths")
    for name, arr in zip(names, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return arrays


@dataclass(frozen=True)
class ScanDataset:
    """A binomial P_up scan: abscissa / p_up / sigma triples plus provenance metadata.

    The abscissa is mu/2pi in Hz (thermometry), theta1 in rad (precession)
    or tau in s (gamma decay); p_up is a fraction in [0, 1] and sigma its
    standard error, > 0.
    """

    abscissa: np.ndarray
    p_up: np.ndarray
    sigma: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _, p_up, sigma = _freeze_arrays(self, ("abscissa", "p_up", "sigma"))
        if np.any((p_up < 0) | (p_up > 1)):
            raise ValueError("p_up must lie in [0, 1]")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0 elementwise")

    def __len__(self):
        return len(self.abscissa)

    def to_csv(self, path):
        """Write header + rows; full-precision scientific notation."""
        _write_rows(path, ["abscissa", "p_up", "sigma"], (self.abscissa, self.p_up, self.sigma))

    @classmethod
    def from_csv(cls, path, kind):
        """Read a CSV written by to_csv; a malformed file is a ValueError naming it."""
        try:
            with open(path) as fh, warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the error below
                width = len(fh.readline().split(","))
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if len(data) == 0:
                raise ValueError("no data rows")
            if width < 3 or data.shape[1] != width:
                raise ValueError("every row must have as many fields as the header, at least 3")
            return cls(abscissa=data[:, 0], p_up=data[:, 1], sigma=data[:, 2],
                       meta={"kind": kind, "source": str(path)})
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


@dataclass(frozen=True)
class Series:
    """Sample times t in s and the values there, plus provenance metadata.

    Drift is in degrees, path noise is in meters.
    """

    t: np.ndarray
    value: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _freeze_arrays(self, ("t", "value"))

    def __len__(self):
        return len(self.t)

    def to_csv(self, path):
        """Write the t_s,value header + rows; full-precision scientific notation."""
        _write_rows(path, ["t_s", "value"], (self.t, self.value))


_BLOCK_ROWS = 2048  # rows per write; at 4 float columns a block's buffers stay under 1 MiB
_TENS = bytes(48 + v // 10 % 10 for v in range(256))  # translate tables: a value 0-99 to
_ONES = bytes(48 + v % 10 for v in range(256))  # its tens and its ones character
_POW10 = {}  # q -> 10**q as a double-double, filled on first use


def _pow10(q):
    """(hi, hi's high and low 26 bits, lo, e), 10**q = (hi + lo) 2**e to ~2**-106, from ints."""
    if q not in _POW10:
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        shift = 111 - num.bit_length() + den.bit_length()
        m = (num << shift) // den if shift >= 0 else num // (den << -shift)
        top = m.bit_length() - 1
        hi = math.ldexp(float(m), -top)
        hh = 134217729.0 * hi - (134217729.0 * hi - hi)  # Veltkamp split
        _POW10[q] = (hi, hh, hi - hh, math.ldexp(float(m - int(float(m))), -top), top - shift)
    return _POW10[q]


def _scaled(a, k):
    """a 10**(17 - k) = p + f + frac to ~1e-14, p integer-valued, f = floor(rest), 0 <= frac < 1.

    Dekker's exact product of frexp's mantissa and the double-double power of ten, then ldexp.
    """
    k_min = int(k.min())
    table = np.array([_pow10(17 - q) for q in range(k_min, int(k.max()) + 1)]).T
    hi, hh, hl, lo, e = table.take((k - k_min).astype(np.intp), axis=1)
    m, scale = np.frexp(a)
    np.add(scale, e, out=scale, casting="unsafe")  # e: a whole number held as a float
    mh = m * 134217729.0 - (m * 134217729.0 - m)  # Veltkamp split
    ml = m - mh
    p = m * hi
    r1 = np.ldexp(((mh * hh - p) + mh * hl + ml * hh) + ml * hl, scale)
    r2 = np.ldexp(m * lo, scale)
    f = np.floor(r1 + r2)
    return np.ldexp(p, scale), f, (r1 - f) + r2


def _decimal(x):
    """|x| rounded to (high 1e8 + low) 10**(k - 17), high of 10 digits and low of 8, exact floats.

    Also returns the indices left to Python: zeros, non-finite values, values within
    1e-6 of a tie (which rounds half-even) and those that round up to a power of ten.
    """
    a = np.abs(x)
    special = ~((a > 0.0) & (a < np.inf))  # zero, infinite or nan
    a[special] = 1.0
    k = np.floor(np.log10(a))
    p, f, frac = _scaled(a, k)
    off = np.flatnonzero(((p - 1e17) + f < 0.0) | ((p - 1e18) + f >= 0.0))  # log10 a decade off
    if off.size:
        k[off] += np.where(p[off] < 5e17, -1.0, 1.0)
        p[off], f[off], frac[off] = _scaled(a[off], k[off])
    f += np.floor(frac + 0.5)  # to nearest: ties are escaped
    high = np.floor(p / 1e8)  # an exact product and a Sterbenz difference, then a carry
    low = (p - high * 1e8) + f
    carry = np.floor(low / 1e8)
    high += carry
    low -= carry * 1e8
    return high, low, k, np.flatnonzero(special | (np.abs(frac - 0.5) < 1e-6) | (high >= 1e10))


def _format_floats(x, out, used):
    """Write '%.17e' % v of each v in x into the (n, 25) byte slots out and mark the bytes used.

    Returns the indices of the fields left to Python (see `_decimal`).  The digits are
    nine floored quotients 0-99 of high and low plus the exponent's last two; row by
    row, since a broadcast divide allocates numpy's casting buffers.
    """
    high, low, k, escape = _decimal(x)
    hundreds = np.floor(np.abs(k) / 100.0)
    pairs = np.empty((10, len(x)))
    for rows, value in ((pairs[:5], high), (pairs[5:9], low)):
        for row, divisor in zip(rows, (1e8, 1e6, 1e4, 1e2, 1.0)[-len(rows):]):
            np.floor(np.divide(value, divisor, out=row), out=row)
        rows[1:] -= 100.0 * rows[:-1]
    np.subtract(np.abs(k), 100.0 * hundreds, out=pairs[9])
    pairs = pairs.T.astype(np.uint8, order="C").tobytes()
    tens, ones = (np.frombuffer(pairs.translate(t), np.uint8).reshape(-1, 10)
                  for t in (_TENS, _ONES))
    out[:, 0], out[:, 2], out[:, 20] = ord("-"), ord("."), ord("e")
    out[:, 1], out[:, 4:20:2] = tens[:, 0], tens[:, 1:9]  # d.dd...: pair 0 around the point
    out[:, 3], out[:, 5:20:2] = ones[:, 0], ones[:, 1:9]
    out[:, 21] = ord("+")
    out[k < 0.0, 21] = ord("-")
    out[:, 22], out[:, 23], out[:, 24] = hundreds + ord("0"), tens[:, 9], ones[:, 9]
    used[:, 1:] = True
    used[:, 0], used[:, 22] = x < 0.0, hundreds > 0.0
    return escape


def _write_rows(path, header, columns):
    """The one CSV writer: header, then rows of %.17e floats and %s others; CRLF line ends.

    A block of rows is one byte matrix with a slot per field and a mask of the bytes in use;
    `_format_floats` fills the float slots, Python's % the fields it leaves and text fields.
    """
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    with open(path, "w", newline="") as text:
        fh, encoding = text.buffer, text.encoding
        fh.write((",".join(header) + "\r\n").encode(encoding))
        cells = [None if col.dtype.kind == "f"
                 else [("%s" % v).encode(encoding) for v in col.tolist()] for col in columns]
        widths = [25 if c is None else max(map(len, c), default=0) for c in cells]
        starts = list(itertools.accumulate([w + 1 for w in widths], initial=0))
        out = np.empty((min(n_rows, _BLOCK_ROWS), starts[-1] + 1), np.uint8)
        used = np.ones(out.shape, bool)
        out[:, [s - 1 for s in starts[1:]]] = ord(",")
        out[:, -2:] = (ord("\r"), ord("\n"))
        for start in range(0, n_rows, _BLOCK_ROWS):
            o, u = out[:n_rows - start], used[:n_rows - start]
            for col, col_cells, s, w in zip(columns, cells, starts, widths):
                if col_cells is None:
                    x = np.asarray(col[start:start + len(o)], float)
                    rows = _format_floats(x, o[:, s:s + w], u[:, s:s + w])
                    fill = [("%.17e" % v).encode(encoding) for v in x[rows].tolist()]
                else:
                    rows, fill = range(len(o)), col_cells[start:start + len(o)]
                for i, field in zip(rows, fill):
                    o[i, s:s + len(field)] = np.frombuffer(field, np.uint8)
                    u[i, s:s + w] = np.arange(w) < len(field)
            fh.write(o[u])


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


def _sample_scan(p_true, shots, seed, abscissa, kind, meta_extra):
    """One scan of `_sample_scans`."""
    return _sample_scans(shots, [(p_true, seed, abscissa, kind, meta_extra)])[0]


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
    mu = np.asarray(mu_grid, dtype=float)
    p_true = thermometry_model(mu, cfg.omega_com, state.n_bar, geom, drive, cfg)
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
    shots: int = 500,
    seed: int = 0,
) -> ScanDataset:
    """Far-detuned decoherence scan P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""
    tau = np.asarray(tau_grid, dtype=float)
    p_true = gamma_decay_lineshape(gamma, tau)
    return _sample_scan(p_true, shots, seed, tau, "gamma", {"gamma": gamma})


def simulate_angle_drift(model: DriftModel, duration: float, dt: float) -> Series:
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
    return Series(t=t, value=drift, meta=meta)


def _one_pole_lowpass(x, a):
    """y[i] = (1 - a) x[i] + a y[i-1] with y[-1] = 0, in input order, a block at a time."""
    b = 1.0 - a
    out = np.empty(len(x))
    prev = 0.0
    for start in range(0, len(x), _BLOCK_ROWS):
        block = list(itertools.accumulate((b * x[start:start + _BLOCK_ROWS]).tolist(),
                                          lambda y, u: u + a * y, initial=prev))
        out[start:start + len(block) - 1] = block[1:]
        prev = block[-1]
    return out


def simulate_path_noise(model: PathNoiseModel, duration: float, rate: float) -> Series:
    """Differential path-length series dl(t), meters, sampled at `rate`.

    Slow band: a random walk through a one-pole low-pass at slow_cutoff,
    scaled to slow_amplitude RMS.  Fast band: white at fast_amplitude RMS.
    The sum is rescaled to target_rms when set.
    """
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be > 0")
    n = int(round(duration * rate))
    if n < 1:
        raise ValueError(f"duration {duration:g} s at sample rate {rate:g} Hz gives no samples")
    dt = 1.0 / rate
    rng = np.random.Generator(np.random.Philox(key=np.uint64(model.seed % 2 ** 64)))
    series = np.zeros(n)
    # in place wherever that keeps the bits: at most three arrays of n at once
    if model.slow_amplitude > 0:
        walk = rng.standard_normal(n)
        np.cumsum(walk, out=walk)
        a = math.exp(-2.0 * math.pi * model.slow_cutoff * dt)
        slow = _one_pole_lowpass(walk, a)
        del walk
        slow -= slow.mean()
        rms = math.sqrt(float(np.mean(slow * slow)))
        if rms > 0:
            slow *= model.slow_amplitude / rms
            series += slow
        del slow
    if model.fast_amplitude > 0:
        fast = rng.standard_normal(n)
        fast *= model.fast_amplitude
        series += fast
    if model.target_rms is not None:
        rms = math.sqrt(float(np.mean(series * series)))
        if rms > 0:
            series *= model.target_rms / rms
    t = np.arange(n, dtype=float)
    t *= dt
    meta = {"kind": "pathnoise", "seed": model.seed, "rate_hz": rate,
            "target_rms_m": model.target_rms}
    return Series(t=t, value=series, meta=meta)

