import math
import os
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from odfkit.configio import load_config
from odfkit.core import ThermalState
from odfkit.csvio import _BLOCK_FIELDS, ScanDataset, Series, _tables, write_rows
from odfkit.interactions import precession_lineshape, thermometry_model
from odfkit.simulate import (
    SLOW_CUTOFF,
    simulate_angle_drift,
    simulate_gamma_decay,
    simulate_path_noise,
    simulate_precession,
    simulate_thermometry,
)
from odfkit import _stream_v1
from odfkit.simulate import _one_pole_lowpass, _sample_scans

SRC = Path(__file__).resolve().parents[1] / "src"
SCN = load_config()  # the default config
CFG = SCN.trap
GEOM = SCN.beams  # 28 degrees
DRIVE = SCN.drive
MU = CFG.omega_com + 2 * math.pi * np.linspace(-3e3, 3e3, 30)


# -- ScanDataset and Series containers -------------------------------------------


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(3.0), p_up=np.zeros(2), sigma=np.ones(2))
    with pytest.raises(ValueError):
        Series(t=np.arange(3.0), value=np.zeros(2))


def test_dataset_probability_invariants():
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.array([0.5, 1.2]),
                    sigma=np.ones(2), meta={"kind": "thermometry"})
    with pytest.raises(ValueError):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.array([0.5, 0.5]),
                    sigma=np.array([0.1, 0.0]), meta={"kind": "precession"})


def test_dataset_bounds_hold_without_meta():
    with pytest.raises(ValueError, match="p_up"):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.array([0.5, 1.2]), sigma=np.ones(2))
    with pytest.raises(ValueError, match="sigma"):
        ScanDataset(abscissa=np.arange(2.0), p_up=np.full(2, 0.5), sigma=np.array([0.1, 0.0]))


@pytest.mark.parametrize("field,kind", [
    ("abscissa", "thermometry"), ("p_up", "thermometry"), ("sigma", "thermometry"),
    ("abscissa", "drift"), ("p_up", "drift"),
])
def test_dataset_rejects_non_finite(field, kind):
    # a drift Series holds the abscissa as t and the values as value, and has no sigma
    if kind == "drift":
        cls, name = Series, {"abscissa": "t", "p_up": "value"}[field]
        arrays = {"t": np.arange(2.0), "value": np.full(2, 0.5)}
    else:
        cls, name = ScanDataset, field
        arrays = {"abscissa": np.arange(2.0), "p_up": np.full(2, 0.5), "sigma": np.full(2, 0.1)}
    arrays[name] = np.array([0.5, math.nan])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**arrays)


def test_dataset_time_series_allows_signed_values():
    # drift and path-noise series carry no bounds
    ds = Series(t=np.arange(3.0), value=np.array([-1.0, 0.0, 2.0]), meta={"kind": "drift"})
    assert len(ds) == 3
    with pytest.raises(ValueError):
        ds.value[0] = 0.3


def test_dataset_arrays_are_read_only():
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=50, seed=1)
    with pytest.raises(ValueError):
        ds.p_up[0] = 0.3


def test_dataset_leaves_callers_grid_writable():
    grid = np.linspace(0.0, 6.28, 5)
    ds = simulate_precession(1000.0, 100.0, 5e-4, grid, shots=500, seed=0)
    grid[0] = 1.0
    assert ds.abscissa[0] == 1.0  # a read-only view of the same memory, not a copy
    with pytest.raises(ValueError):
        ds.abscissa[0] = 0.0


# -- CSV writer and reader ---------------------------------------------------------

# a scenario label needs no csv quoting: no comma, quote or line break
LABELS = st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=12)
SPECIAL = [math.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
           -math.inf, math.inf]


def _write_both(path, header, columns, rows):
    write_rows(path / "new.csv", header, columns)
    oracles.csv_rows(path / "oracle.csv", header, rows)
    return (path / "new.csv").read_bytes(), (path / "oracle.csv").read_bytes()


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(LABELS, st.floats(), st.floats()), max_size=40))
@example(rows=[("doppler", math.nan, -0.0), ("eit", 5e-324, -1.7976931348623157e308),
               ("x", math.inf, -math.inf)])
def test_writer_matches_csv_writer_oracle(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv")
    columns = [list(col) for col in zip(*rows)] or [[], [], []]
    new, oracle = _write_both(path, ["scenario", "a", "b"], columns, rows)
    assert new == oracle


# rows per block at 2, 3 and 4 fields; each n is written at every width, so the
# tables straddle each width's block boundary
BLOCK_ROWS = [_BLOCK_FIELDS // width for width in (2, 3, 4)]


@pytest.mark.parametrize("n", [0, 1] + [b + d for b in BLOCK_ROWS for d in (-1, 0, 1)])
def test_writer_block_boundaries_match_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    value[:len(SPECIAL)] = SPECIAL[:n]
    t = np.arange(n) * 0.01
    labels = [f"s{i % 7}" for i in range(n)]
    new, oracle = _write_both(tmp_path, ["t_s", "value"], (t, value), zip(t, value))
    assert new == oracle and new.count(b"\r\n") == n + 1
    new, oracle = _write_both(tmp_path, ["scenario", "t_s", "value"], (labels, t, value),
                              zip(labels, t, value))
    assert new == oracle
    columns = (t, value, -value, 1e-22 * t)
    new, oracle = _write_both(tmp_path, ["a", "b", "c", "d"], columns, zip(*columns))
    assert new == oracle


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("cell_bytes", range(1, 9))
def test_writer_text_slots_keep_floats_word_aligned(tmp_path, cell_bytes, position, delta):
    # a text slot is its widest cell and its separator padded to whole words: cells of
    # 1-8 bytes plus "," or CRLF leave every residue mod 4, and last puts CRLF inside it
    n = _BLOCK_FIELDS // 3 + delta
    rng = np.random.default_rng(cell_bytes)
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    value[:len(SPECIAL)] = SPECIAL
    columns = [np.arange(n) * 0.01, value]
    columns.insert(position, ["scenario"[:1 + i % cell_bytes] for i in range(n)])
    header = ["t_s", "value"]
    header.insert(position, "scenario")
    new, oracle = _write_both(tmp_path, header, columns, zip(*columns))
    assert new == oracle


def test_word_tables_hold_digit_groups_and_exponents():
    digits, exp = _tables()
    assert len(digits) == 10_100
    assert [q for q in range(10_000) if digits[q].tobytes() != b"%04d" % q] == []
    assert [q for q in range(100)
            if digits[10_000 + q].tobytes() != b"\0%d.%d" % divmod(q, 10)] == []
    assert sorted(exp) == [b"\r\n", b","]
    for k in range(-324, 309):
        v = float(f"{1.5 if k == 308 else 5}e{k}")  # 5e308 overflows
        part = b"e" + ("%.17e" % v).split("e")[1].encode()
        assert int(part[1:]) == k
        if len(part) == 4:  # e+dd: a NUL in the hundreds slot
            part = part[:2] + b"\0" + part[2:]
        for sep, table in exp.items():
            assert table[k + 330].tobytes() == (part + sep).ljust(8, b"\0"), (k, sep)


@pytest.mark.parametrize("columns", [
    ([1.0, 2.0, 3.0], [1.0, 2.0]),  # a shorter later column failed in a numpy broadcast
    ([1.0, 2.0], [1.0, 2.0, 3.0]),  # a longer one was cut to the first column's length
    (["doppler"], [1.0], [2.0, 3.0]),
])
def test_writer_rejects_columns_of_unequal_length(tmp_path, columns):
    with pytest.raises(ValueError, match="equal lengths"):
        write_rows(tmp_path / "t.csv", [f"c{i}" for i in range(len(columns))], columns)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("header", [["t_s", "value", "extra"], ["t_s"], []])
def test_writer_rejects_header_that_does_not_name_each_column(tmp_path, header):
    with pytest.raises(ValueError, match="header names for 2 columns"):
        write_rows(tmp_path / "t.csv", header, ([0.0, 1.0], [2.0, 3.0]))
    assert not (tmp_path / "t.csv").exists()


def test_writer_rejects_text_holding_nul(tmp_path):
    # NUL marks the bytes a block deletes, so a text field may not hold one
    with pytest.raises(ValueError, match="NUL"):
        write_rows(tmp_path / "t.csv", ["scenario", "a"], (["eit", "dop\0pler"], [1.0, 2.0]))
    assert not (tmp_path / "t.csv").exists()


def _float_table_matches_oracle(path, values, width):
    columns = [values[i::width] for i in range(width)]
    new, oracle = _write_both(path, [f"c{i}" for i in range(width)], columns, zip(*columns))
    assert new == oracle


@pytest.mark.parametrize("width", [2, 3])
def test_writer_kernel_matches_oracle_on_random_bits(tmp_path, width):
    # every exponent, subnormals, nan payloads and both infinities: 1.2e5 values per table
    bits = np.random.default_rng(width).integers(0, 2 ** 64, 120_000, np.uint64)
    bits[:8] = [0x7FF8000000000000, 0xFFF0000000000001, 0x7FF0000000000000,
                0xFFF0000000000000, 1, 0x800FFFFFFFFFFFFF, 0, 1 << 63]
    _float_table_matches_oracle(tmp_path, bits.view(np.float64).tolist(), width)


def test_writer_kernel_matches_oracle_on_edge_values(tmp_path):
    # 2**-26, 2**-27 and 19 * 2**-24 have 19 significant digits, the last a 5: exact
    # ties that round half-even, 2**-26 down to 1.49011611938476562e-08 and 19 * 2**-24
    # up to 1.13248825073242188e-06; 3 * 2**-27 has 20
    edges = [2.0 ** -26, 2.0 ** -27, 19 * 2.0 ** -24, 3 * 2.0 ** -27,
             5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             9.9999999999999999e22, 999999999999999999.0]
    for k in range(-323, 309):
        # the double nearest 10**k; for k = 153 it lies below and rounds up a decade
        ten = float(f"1e{k}")
        edges += [math.nextafter(ten, 0.0), ten, math.nextafter(ten, math.inf)]
    edges += [2.0 ** j for j in range(-1074, 1024)]
    _float_table_matches_oracle(tmp_path, edges + [-v for v in edges], 2)


def test_writer_block_buffers_stay_under_one_mib(tmp_path):
    # 1e5-row tables of 2, 3 and 4 float columns, the last the curves table; at each
    # width that is many full blocks.  The %-template writer peaked at 0.32 MiB
    theta = np.linspace(10.0, 30.0, 100_000)
    columns = (theta, np.full(theta.shape, 1.27), 1e-22 * np.sin(theta), -1e3 * np.cos(theta))
    peaks = []
    tracemalloc.start()
    try:
        for width in (2, 3, 4):
            tracemalloc.reset_peak()
            write_rows(tmp_path / "curves.csv", ["a", "b", "c", "d"][:width], columns[:width])
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 2 ** 20, peaks


def _series_peak(generate):
    tracemalloc.start()
    try:
        series = generate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(series), peak


def test_path_noise_peak_stays_under_four_arrays():
    # the 6000 s record at 100 Hz: two float arrays of n, the finiteness mask and a block;
    # a new array per step peaked at 8 arrays of n, a zeroed series next to its bands at 3.3
    n, peak = _series_peak(lambda: simulate_path_noise(6000.0, 100.0, seed=3))
    assert n == 600_000 and peak <= 16 * n + n + 2 ** 20


def test_drift_peak_stays_under_two_arrays_and_a_block():
    # the jitter drawn in one call, and scaled out of place, peaked at 3 arrays of n
    n, peak = _series_peak(lambda: simulate_angle_drift(360000.0, 1.0, 0.002, 5e-4, seed=3))
    assert n == 360_001 and peak <= 16 * n + n + 2 ** 20


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(FINITE, st.floats(0.0, 1.0),
                               st.floats(0.0, 1e300, exclude_min=True)), min_size=1, max_size=20),
       form=st.sampled_from(["{:.17e}", "{!r}"]))
def test_reader_parses_to_the_bits_of_float(tmp_path_factory, rows, form):
    path = tmp_path_factory.mktemp("csv") / "scan.csv"
    text = [[form.format(v) for v in row] for row in rows]
    path.write_text("abscissa,p_up,sigma\r\n" + "".join(",".join(r) + "\r\n" for r in text))
    back = ScanDataset.from_csv(path)
    expect = np.array([[float(v) for v in r] for r in text])
    for i, got in enumerate((back.abscissa, back.p_up, back.sigma)):
        assert got.tobytes() == expect[:, i].tobytes()


def test_reader_skips_blank_lines_between_rows(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("abscissa,p_up,sigma\n0.1,0.5,0.01\n\n0.2,0.25,0.02\n\n")
    back = ScanDataset.from_csv(path)
    assert back.abscissa.tolist() == [0.1, 0.2] and back.sigma.tolist() == [0.01, 0.02]


def test_dataset_csv_round_trip(tmp_path):
    ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=50, seed=7)
    path = tmp_path / "scan.csv"
    ds.to_csv(path)
    back = ScanDataset.from_csv(path)
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
    truth = thermometry_model(mu, CFG.omega_com, 1.27, GEOM, DRIVE, CFG)
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
    truth = thermometry_model(mu, CFG.omega_com, 1.27, GEOM, DRIVE, CFG)
    # the 1000 scans in one sampler call: the draws of simulate_thermometry per seed
    scans = _sample_scans(100, [(truth, seed, mu, "thermometry", {}) for seed in range(1000)])
    for seed in (0, 999):
        ds = simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), mu, shots=100, seed=seed)
        assert np.array_equal(scans[seed].p_up, ds.p_up)
    hits = sum(int(np.sum(np.abs(ds.p_up - truth) <= ds.sigma)) for ds in scans)
    total = len(scans) * len(mu)
    assert 0.60 <= hits / total <= 0.75


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5])
def test_sampler_matches_per_point_generators(seed):
    # one Philox whose counter is reset per point draws what a new
    # Philox(key=seed, counter=[0, 0, 0, i]) per point draws
    p_true = np.concatenate([[0.0, 1.0, -0.1, 1.1, 0.5],
                             np.random.default_rng(seed).random(3000)])
    ds = _sample_scans(300, [(p_true, seed, np.arange(len(p_true)), "precession", {})])[0]
    assert np.array_equal(ds.p_up, oracles.per_point_binomial(p_true, 300, seed) / 300)


# shot counts at the edges of numpy's samplers: inversion up to min(p, 1 - p) shots = 30
# (all of it below 61 shots), BTPE above, and float64 holding its integers up to 2**53
SAMPLER_SHOTS = [1, 30, 31, 60, 61, 500, 10 ** 4, 10 ** 6, 2 ** 53, 2 ** 53 + 1, 2 ** 62,
                 2 ** 63 - 1]
CHUNK = _stream_v1._CHUNK


@settings(max_examples=24, derandomize=True, deadline=None)
@given(seed=st.sampled_from([0, 2 ** 64 - 1, -1, 2 ** 70 + 3]),
       shots=st.sampled_from(SAMPLER_SHOTS),
       length=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
       layout=st.integers(0, 2 ** 32 - 1))
@example(seed=0, shots=2 ** 53, length=CHUNK + 1, layout=0)
@example(seed=-1, shots=2 ** 53 + 1, length=CHUNK - 1, layout=1)
@example(seed=2 ** 70 + 3, shots=2 ** 63 - 1, length=CHUNK, layout=2)
@example(seed=2 ** 64 - 1, shots=61, length=2 * CHUNK + 1, layout=3)
def test_sampler_matches_oracle_at_planted_points(seed, shots, length, layout):
    # uniform p with the sampler's edge cases planted at random positions: p = 0, 1 and
    # 1/2, the inversion boundary 30/shots with its two neighbours, its mirror, and p
    # outside [0, 1], which is clipped
    rng = np.random.default_rng(layout)
    edge = 30.0 / shots
    planted = [0.0, 1.0, 0.5, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
               1.0 - edge, -0.1, 1.1]
    p_true = rng.random(length)
    p_true[rng.choice(length, len(planted), replace=False)] = planted
    ds = _sample_scans(shots, [(p_true, seed, np.arange(length), "precession", {})])[0]
    assert np.array_equal(ds.p_up, oracles.per_point_binomial(p_true, shots, seed) / shots)


def test_sampler_matches_oracle_across_scans():
    # scans drawn together, each keyed by its own seed, draw what each draws alone
    grids = [np.random.default_rng(k).random(size) for k, size in enumerate((40, CHUNK, 7))]
    seeds = [3, 2 ** 64 + 3, -5]
    datasets = _sample_scans(500, [(p, seed, p, "precession", {}) for p, seed in zip(grids, seeds)])
    for p, seed, ds in zip(grids, seeds, datasets):
        assert np.array_equal(ds.p_up, oracles.per_point_binomial(p, 500, seed) / 500)


def test_sampler_leaves_no_point_to_the_per_point_draw():
    # numpy.random, which the per-point draw needs, costs ~2-6 MB of RSS to import; a
    # scan whose shots fit a float and whose p are numbers never loads it
    probe = ("import sys, numpy as np; from odfkit.simulate import _sample_scans; "
             f"p = np.linspace(-0.1, 1.1, 3 * {CHUNK}); "
             "[_sample_scans(s, [(p, 7, p, 'precession', {})]) for s in (40, 500, 2 ** 53)]; "
             "print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "False"


def test_sampler_nan_p_is_value_error():
    with pytest.raises(ValueError):
        _sample_scans(500, [(np.array([0.5, math.nan, 0.25]), 0, np.arange(3), "precession", {})])


def test_sampler_peak_stays_under_six_arrays():
    # a 1e5-point draw peaks near 4.7 arrays of n; a kernel over the whole scan at once
    # would hold ~40
    n = 100_000
    theta = np.radians(np.linspace(0.0, 330.0, n))
    p_true = precession_lineshape(1641.5, 100.0, 500e-6, theta)
    tracemalloc.start()
    try:
        _sample_scans(500, [(p_true, 11, theta, "precession", {})])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n


def test_wilson_sigma_floor():
    # truth pinned at 0 still yields a usable positive sigma
    ds = simulate_gamma_decay(0.0, np.linspace(1e-4, 5e-3, 5), shots=200, seed=0)
    assert np.all(ds.p_up == 0.0)
    assert np.allclose(ds.sigma, 1.0 / (2 * 201.0))


def test_shots_validation():
    with pytest.raises(ValueError):
        simulate_thermometry(GEOM, DRIVE, CFG, ThermalState(1.27), MU, shots=0, seed=0)
    with pytest.raises(ValueError, match="shots"):  # numpy's int64 overflow, named
        simulate_precession(1641.5, 100.0, 500e-6, [0.0, 1.0], shots=2 ** 63, seed=0)


# -- angle drift -------------------------------------------------------------------


def test_drift_linear_rate():
    ds = simulate_angle_drift(3600.0, 10.0, linear_rate=0.002, rms_jitter=0.0, seed=0)
    assert ds.value[-1] == pytest.approx(0.002, rel=1e-12)
    assert ds.value[0] == 0.0


def test_drift_zero_model_is_zero():
    ds = simulate_angle_drift(1000.0, 1.0, linear_rate=0.0, rms_jitter=0.0, seed=0)
    assert np.all(ds.value == 0.0)


def test_drift_6000s_within_axis_range():
    ds = simulate_angle_drift(6000.0, 10.0, linear_rate=0.002, rms_jitter=0.0, seed=0)
    assert ds.value[-1] == pytest.approx(0.002 * 6000 / 3600, rel=1e-12)
    assert np.all(np.abs(ds.value) <= 6e-3)


def test_drift_jitter_deterministic():
    a = simulate_angle_drift(100.0, 1.0, linear_rate=0.002, rms_jitter=1e-3, seed=9)
    b = simulate_angle_drift(100.0, 1.0, linear_rate=0.002, rms_jitter=1e-3, seed=9)
    assert a.value.tobytes() == b.value.tobytes()


def test_drift_validation():
    with pytest.raises(ValueError):
        simulate_angle_drift(0.0, 1.0, linear_rate=0.002, rms_jitter=0.0, seed=0)
    with pytest.raises(ValueError, match="^rms_jitter must be >= 0$"):
        simulate_angle_drift(100.0, 1.0, linear_rate=0.002, rms_jitter=-1e-3, seed=0)


# -- path noise ----------------------------------------------------------------------


def test_path_noise_rms_within_5_percent_over_100_seeds():
    for seed in range(100):
        ds = simulate_path_noise(200.0, 100.0, seed=seed)
        rms = math.sqrt(float(np.mean(ds.value ** 2)))
        assert abs(rms - 12e-9) / 12e-9 < 0.05


def test_path_noise_deterministic():
    a = simulate_path_noise(50.0, 100.0, seed=4)
    b = simulate_path_noise(50.0, 100.0, seed=4)
    assert a.value.tobytes() == b.value.tobytes()


def test_path_noise_one_sample_is_its_rescaled_fast_band():
    # one sample has a zero slow band after the mean is removed: no 0/0, only the fast draw
    ds = simulate_path_noise(0.01, 100.0, seed=5)
    assert len(ds) == 1 and abs(ds.value[0]) == pytest.approx(12e-9, rel=1e-12)


def test_path_noise_spectral_split():
    # the slow band dominates: >=80% of the variance sits below the cutoff, and
    # the rescale to TARGET_RMS scales the whole spectrum and keeps that share
    ds = simulate_path_noise(400.0, 100.0, seed=11)
    series = ds.value - ds.value.mean()
    spectrum = np.abs(np.fft.rfft(series)) ** 2
    freqs = np.fft.rfftfreq(len(series), d=1.0 / 100.0)
    below = spectrum[freqs <= SLOW_CUTOFF].sum()
    assert below / spectrum.sum() >= 0.80


@pytest.mark.parametrize("n", [1, 2, 5000, 2047, 2048, 2049, 4097])  # about its 2048 blocks
def test_lowpass_matches_loop_oracle(n):
    walk = np.cumsum(np.random.default_rng(n).standard_normal(n))
    before = walk.copy()
    a = math.exp(-2.0 * math.pi * 0.1 / 100.0)
    assert np.array_equal(_one_pole_lowpass(walk, a), oracles.one_pole_lowpass(walk, a))
    assert np.array_equal(walk, before)  # a new array; the input is left as it was


@pytest.mark.parametrize("seed", range(5))
def test_lowpass_matches_scipy_lfilter(seed):
    signal = pytest.importorskip("scipy.signal")
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(20_000))
    a = math.exp(-2.0 * math.pi * 0.1 / 100.0)
    expected = signal.lfilter([1.0 - a], [1.0, -a], walk)
    assert np.array_equal(_one_pole_lowpass(walk, a), expected)


def test_path_noise_validation():
    with pytest.raises(ValueError):
        simulate_path_noise(-1.0, 100.0, seed=0)
