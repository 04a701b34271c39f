"""The benchmark's workloads: odfkit command lines generated from a seed,
and the checks that decide whether each command's outputs are correct.

Every generated input (angles, windows, grids, simulate seeds, the config
file and therefore the CSVs the `fit` calls read) comes from the workload
seed.  A workload is a fixed cycle of commands; a run repeats the cycle,
so the second and later cycles also check that a repeated `simulate` with
the same seed writes byte-identical CSVs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

BULK_POINTS = 100_000
PATHNOISE_DURATION_S = 6000.0
PATHNOISE_RATE_HZ = 100.0
DRIFT_DURATION_S = 360_000.0
OMEGA_COM_HZ = 1.1e6  # odfkit's default trap frequency; the config keeps it

SCAN_HEADER = ["abscissa", "p_up", "sigma"]
SERIES_HEADER = ["t_s", "value"]
# reproduce fig4c: 2 scenarios x 5 angles x 3 detunings, 40-point scans
FIG4C_SCAN_POINTS = 2 * 5 * 3 * 40


class CheckError(Exception):
    """An output that is missing, malformed or wrong."""


@dataclass
class Command:
    """One CLI invocation and what it must produce."""

    label: str
    argv: list[str]
    points: int  # output points: angles evaluated, scan points, samples
    csvs: dict = field(default_factory=dict)  # file name -> (header, rows)
    json_stdout: bool = False
    check: object = None  # check(doc, out_dir) for extra semantic checks


# -- strict readers ------------------------------------------------------------


def _reject_constant(name):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise CheckError(f"stdout is not JSON: {err}") from err


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_csv(path: Path, header: list[str], rows: int):
    with open(path) as fh:
        got = fh.readline().rstrip("\r\n").split(",")
    if got != header:
        raise CheckError(f"{path.name}: header {got}, expected {header}")
    numeric = [i for i, name in enumerate(header) if name != "scenario"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    if data.shape[0] != rows:
        raise CheckError(f"{path.name}: {data.shape[0]} rows, expected {rows}")
    if not np.isfinite(data).all():
        raise CheckError(f"{path.name}: non-finite values")


def _within(name, fitted, sigma, truth, n_sigma=5.0):
    if not (math.isfinite(sigma) and abs(fitted - truth) <= n_sigma * sigma):
        raise CheckError(f"{name}: fitted {fitted!r} +- {sigma!r}, "
                         f"truth {truth!r} (more than {n_sigma} sigma)")


def _check_thermometry_fit(fit: dict, n_bar: float):
    if not fit["converged"]:
        raise CheckError("thermometry fit did not converge")
    _within("omega_com_hz", fit["params"]["omega_com_hz"], fit["sigmas"]["omega_com_hz"],
            OMEGA_COM_HZ)
    _within("n_bar", fit["params"]["n_bar"], fit["sigmas"]["n_bar"], n_bar)


def import_odfkit_cli():
    """odfkit.cli from this checkout's sources, imported into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import odfkit
    import odfkit.cli

    if Path(odfkit.__file__).resolve().parent != SRC / "odfkit":
        raise RuntimeError(f"imported odfkit from {odfkit.__file__}, not from {SRC}")
    return odfkit.cli


def _simulated_j_bar(cfg_path) -> float:
    """The coupling `simulate precession` uses for this config."""
    cli = import_odfkit_cli()
    scn = cli.load_config(cfg_path)
    return cli.force_magnitude(scn.beams, scn.drive, scn.trap, scn.thermal).j_bar


# -- semantic checks -----------------------------------------------------------


def _geom_check(theta):
    def check(doc, out_dir):
        if not math.isclose(doc["theta_deg"], theta, rel_tol=1e-9):
            raise CheckError(f"geom theta_deg {doc['theta_deg']} != {theta}")
        if not (doc["feasible"] and doc["delta_k_per_m"] > 0):
            raise CheckError("geom: infeasible or non-positive delta_k")
    return check


def _window_check(lo, hi):
    def check(doc, out_dir):
        if not (lo - 1e-9 <= doc["theta_deg"] <= hi + 1e-9 and doc["ratio_N_s"] > 0):
            raise CheckError(f"optimum {doc['theta_deg']} outside [{lo}, {hi}]")
    return check


def _manifest_check(stems, seed):
    """Each output has a strict-JSON manifest sidecar that records the seed."""
    def check(doc, out_dir):
        for stem in stems:
            with open(out_dir / f"{stem}.manifest.json") as fh:
                recorded = strict_json(fh.read())["seed"]
            if recorded != seed:
                raise CheckError(f"{stem}: manifest seed {recorded} != {seed}")
    return check


def _thermometry_fit_check(n_bar):
    def check(doc, out_dir):
        _check_thermometry_fit(doc, n_bar)
    return check


def _precession_fit_check(cfg_path):
    def check(doc, out_dir):
        if not doc["converged"]:
            raise CheckError("precession fit did not converge")
        _within("j_bar", doc["params"]["j_bar"], doc["sigmas"]["j_bar"],
                _simulated_j_bar(cfg_path))
    return check


def _fig3c_check(seed):
    manifests = _manifest_check(["fig3c_doppler", "fig3c_eit"], seed)

    def check(doc, out_dir):
        manifests(doc, out_dir)
        with open(out_dir / "fig3c_fits.json") as fh:
            fits = strict_json(fh.read())
        # the figure simulates Doppler-cooled and EIT-cooled crystals
        for label, n_bar in (("doppler", 10.7), ("eit", 1.27)):
            _check_thermometry_fit(fits[label], n_bar)
    return check


def _fig4c_check(doc, out_dir):
    data = np.loadtxt(out_dir / "fig4c.csv", delimiter=",", skiprows=1,
                      usecols=(2, 4), ndmin=2)
    if not (data > 0).all():
        raise CheckError("fig4c: non-positive F0 or ratio")


# -- workloads -----------------------------------------------------------------


def _grid(lo, hi, n):
    return f"{lo}:{hi}:{n}"


def write_config(path: Path, rng: random.Random) -> dict:
    """A config overriding the beam angle and the mode temperature."""
    config = {
        "beams": {"theta_odf_deg": round(rng.uniform(20.0, 32.0), 3)},
        "thermal": {"n_bar": round(rng.uniform(0.8, 3.0), 3)},
    }
    path.write_text(json.dumps(config, indent=2) + "\n")
    return config


def _thermometry_grid(rng, n):
    half = round(rng.uniform(2.6e3, 3.4e3), 1)
    return _grid(OMEGA_COM_HZ - half, OMEGA_COM_HZ + half, n)


def _simulate_thermometry(out, cfg_path, config, rng, n):
    seed = rng.randrange(1, 2 ** 31)
    return Command(
        "simulate thermometry",
        ["simulate", "thermometry", "--config", str(cfg_path), "--seed", str(seed),
         "--grid", _thermometry_grid(rng, n), "--out", str(out)],
        points=n, csvs={"thermometry.csv": (SCAN_HEADER, n)},
        check=_manifest_check(["thermometry"], seed))


def _fit(model, out, cfg_path, config, n):
    if model == "thermometry":
        check = _thermometry_fit_check(config["thermal"]["n_bar"])
    else:
        check = _precession_fit_check(cfg_path)
    return Command(f"fit {model}",
                   ["fit", model, "--config", str(cfg_path), "--data", str(out / f"{model}.csv")],
                   points=n, json_stdout=True, check=check)


def cold_start(rng, out, cfg_path, config, scale):
    theta = round(rng.uniform(12.5, 35.5), 3)
    lo, hi = round(rng.uniform(12.0, 20.0), 2), round(rng.uniform(26.0, 36.0), 2)
    g_lo, g_hi = round(rng.uniform(12.0, 16.0), 2), round(rng.uniform(32.0, 36.0), 2)
    fig_seed = rng.randrange(1, 2 ** 31)
    return [
        Command("geom", ["geom", "--theta", str(theta)], points=1,
                json_stdout=True, check=_geom_check(theta)),
        Command("optimize-angle", ["optimize-angle", "--window", f"{lo}:{hi}"],
                points=1, json_stdout=True, check=_window_check(lo, hi)),
        Command("ratio-scan", ["ratio-scan", "--grid", _grid(g_lo, g_hi, 49), "--out", str(out)],
                points=49,
                csvs={"ratio_scan.csv": (["theta_deg", "F0_N", "Gamma_Hz", "ratio"], 49)}),
        _simulate_thermometry(out, cfg_path, config, rng, 30),
        _fit("thermometry", out, cfg_path, config, 30),
        # `reproduce fig3c` is left out: see KNOWN_DEFECTS below
        Command("reproduce fig4c",
                ["reproduce", "fig4c", "--seed", str(fig_seed), "--out", str(out)],
                points=2 * FIG4C_SCAN_POINTS,
                csvs={"fig4c.csv": (["scenario", "theta_deg", "F0_N", "Gamma_Hz", "ratio"], 10)},
                check=_fig4c_check),
    ]


def bulk_scan(rng, out, cfg_path, config, scale):
    n = max(64, round(BULK_POINTS * scale))
    n_bar = str(config["thermal"]["n_bar"])
    c_lo, c_hi = round(rng.uniform(1.0, 4.0), 2), round(rng.uniform(37.0, 40.0), 2)
    r_lo, r_hi = round(rng.uniform(12.0, 15.0), 2), round(rng.uniform(33.0, 36.0), 2)
    thermometry = _simulate_thermometry(out, cfg_path, config, rng, n)
    p_seed = rng.randrange(1, 2 ** 31)
    p_hi = round(rng.uniform(300.0, 360.0), 2)
    return [
        Command("curves",
                ["curves", "--config", str(cfg_path), "--grid", _grid(c_lo, c_hi, n),
                 "--nbar", n_bar, "--out", str(out)],
                points=n,
                csvs={"curves.csv": (["theta_deg", "n_bar", "F0_N", "Jbar_rad_s"], n)}),
        Command("ratio-scan",
                ["ratio-scan", "--config", str(cfg_path), "--grid", _grid(r_lo, r_hi, n),
                 "--out", str(out)],
                points=n,
                csvs={"ratio_scan.csv": (["theta_deg", "F0_N", "Gamma_Hz", "ratio"], n)}),
        thermometry,
        Command("simulate precession",
                ["simulate", "precession", "--config", str(cfg_path), "--seed", str(p_seed),
                 "--grid", _grid(0, p_hi, n), "--out", str(out)],
                points=n, csvs={"precession.csv": (SCAN_HEADER, n)},
                check=_manifest_check(["precession"], p_seed)),
        # `fit thermometry` of this CSV is left out: see KNOWN_DEFECTS below
        _fit("precession", out, cfg_path, config, n),
    ]


def long_series(rng, out, cfg_path, config, scale):
    noise_duration = PATHNOISE_DURATION_S * scale
    noise_n = round(noise_duration * PATHNOISE_RATE_HZ)
    drift_duration = max(10.0, DRIFT_DURATION_S * scale)
    drift_n = int(drift_duration) + 1  # dt = 1 s, both ends included
    seeds = [rng.randrange(1, 2 ** 31) for _ in range(3)]
    jitter = f"{rng.uniform(2e-4, 8e-4):.3e}"
    rate = f"{rng.uniform(0.001, 0.004):.4f}"
    return [
        Command("simulate pathnoise",
                ["simulate", "pathnoise", "--seed", str(seeds[0]),
                 "--duration", repr(noise_duration),
                 "--sample-rate", repr(PATHNOISE_RATE_HZ), "--out", str(out)],
                points=noise_n, csvs={"pathnoise.csv": (SERIES_HEADER, noise_n)},
                check=_manifest_check(["pathnoise"], seeds[0])),
        Command("simulate drift",
                ["simulate", "drift", "--seed", str(seeds[1]), "--duration", repr(drift_duration),
                 "--dt", "1", "--jitter", jitter, "--rate", rate, "--out", str(out)],
                points=drift_n, csvs={"drift.csv": (SERIES_HEADER, drift_n)},
                check=_manifest_check(["drift"], seeds[1])),
        # fig5: a 6000 s drift at 10 s spacing and 200 s of path noise at 100 Hz
        Command("reproduce fig5",
                ["reproduce", "fig5", "--seed", str(seeds[2]), "--out", str(out)],
                points=601 + 20_000,
                csvs={"fig5a_drift.csv": (SERIES_HEADER, 601),
                      "fig5b_pathnoise.csv": (SERIES_HEADER, 20_000)},
                check=_manifest_check(["fig5a_drift", "fig5b_pathnoise"], seeds[2])),
    ]


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {"cold-start": cold_start, "bulk-scan": bulk_scan, "long-series": long_series}


# Commands that fail their checks on some seeds with the current odfkit.
# The workloads must pass on every seed, so these are kept out of them;
# perfbench/test_smoke.py expects each to fail on the input known_defect()
# gives, so the fix that makes one pass also puts it back into its workload.
KNOWN_DEFECTS = ("fig3c-doppler-fit", "bulk-thermometry-fit")


def known_defect(name: str, work_dir: Path) -> list[Command]:
    """The commands of one known defect, on an input on which it shows."""
    out = work_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    if name == "fig3c-doppler-fit":
        # The Doppler-cooled (n_bar = 10.7) 30-point fit of fig3c stops after
        # 200 iterations with converged = false, or settles near n_bar = 6;
        # about 1 cold-start seed in 200 draws such a fig3c seed.
        seed = 393736254
        return [Command("reproduce fig3c",
                        ["reproduce", "fig3c", "--seed", str(seed), "--out", str(out)],
                        points=4 * 30,
                        csvs={"fig3c_doppler.csv": (SCAN_HEADER, 30),
                              "fig3c_eit.csv": (SCAN_HEADER, 30)},
                        check=_fig3c_check(seed))]
    if name != "bulk-thermometry-fit":
        raise KeyError(name)
    # On a 1e5-point scan the fit misses n_bar by more than 5 sigma on most
    # seeds (here 2.4913 +- 0.0039 against 2.512).  Its weights are the
    # sigma column, which `simulate` estimates from the sampled p_up; the
    # noise in those weights biases n_bar by about -1%.
    cfg_path = work_dir / "config.json"
    config = {"beams": {"theta_odf_deg": 26.815}, "thermal": {"n_bar": 2.512}}
    cfg_path.write_text(json.dumps(config) + "\n")
    return [Command("simulate thermometry",
                    ["simulate", "thermometry", "--config", str(cfg_path), "--seed", "39388294",
                     "--grid", "1096874.2:1103125.8:100000", "--out", str(out)],
                    points=BULK_POINTS, csvs={"thermometry.csv": (SCAN_HEADER, BULK_POINTS)}),
            _fit("thermometry", out, cfg_path, config, BULK_POINTS)]


def build(workload: str, seed: int, work_dir: Path, scale: float = 1.0) -> list[Command]:
    """Write the seed's config into work_dir and return the command cycle."""
    rng = random.Random(f"{workload}:{seed}")
    out = work_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "config.json"
    config = write_config(cfg_path, rng)
    return WORKLOADS[workload](rng, out, cfg_path, config, scale)


def check_outputs(cmd: Command, rc: int, stdout: str, out_dir: Path, digests: dict):
    """Raise CheckError unless the command exited 0 and wrote correct outputs.

    A CSV seen before in this run (same name, same inputs) must be
    byte-identical to the first one, which was checked in full and whose
    SHA-256 is in `digests`; a new CSV is checked and its digest added.
    """
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    doc = strict_json(stdout) if cmd.json_stdout else None
    for name, (header, rows) in cmd.csvs.items():
        path = out_dir / name
        if not path.is_file():
            raise CheckError(f"{name}: missing")
        digest = sha256(path)
        if name not in digests:
            check_csv(path, header, rows)
            digests[name] = digest
        elif digest != digests[name]:
            raise CheckError(f"{name}: differs from the earlier output of the same command")
    if cmd.check is not None:
        cmd.check(doc, out_dir)
