"""Command-line front end.

Subcommands: geom, curves, ratio-scan, simulate, fit, optimize-angle,
reproduce; simulate, fit and reproduce take a model or figure name first.
Each command accepts --config, --scenario and only the flags it reads.
All numeric CLI units are Hz, degrees, seconds, meters (and
yoctonewtons where labeled); CSV outputs carry a header row, floats in
full-precision scientific notation, and each output file is accompanied by
a JSON manifest sidecar recording the config digest and seed.

Every odfkit call is a fresh process, so numpy (60-95 ms to import) loads only
for an invocation that takes arrays.  geom, optimize-angle, and a curves,
fig1de or ratio-scan table of at most _SMALL_TABLE rows compute in Python
floats and write the bytes that the array path writes for the same table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

# numpy is imported by _run for the invocations that take arrays, and csvio, fitting,
# simulate and manifest by the commands that call them
from .configio import ConfigError, Scenario, check_number, load_config, read_json
from .constants import TWO_PI
from .core import ThermalState, _checked, replace
from .geometry import (
    ActuatorState,
    GeometryInfeasibleError,
    actuators_for_angle,
    angle_from_actuators,
    delta_k,
    effective_wavelength,
    misalignment_phase,
    repeatability_to_angle_error,
)
from .interactions import ResonanceSingularityError, force_magnitude, optimize_theta


def _parse_fields(flag: str, spec: str, form: str, build, sep=":"):
    """build(*fields) of a sep-separated argv value; errors name the flag."""
    try:
        return build(*spec.split(sep))
    except (TypeError, ValueError, argparse.ArgumentTypeError) as err:  # TypeError: field count
        raise ConfigError(f"bad {flag} {spec!r}, expected {form}") from err


def _finite_float(text: str) -> float:
    """argparse type of the float flags and --window's bounds: a finite number, or an error."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _shots(text: str) -> int:
    """argparse type of --shots: an integer the sampler takes, 1 to 2**63 - 1."""
    try:
        if 1 <= (value := int(text)) <= 2 ** 63 - 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer from 1 to 2**63 - 1, got {text!r}")


def _parse_grid(spec: str):
    """(start, stop, n) of a --grid start:stop:n, which np.linspace or _linspace spans."""
    def build(start, stop, n):
        start, stop, n = float(start), float(stop), int(n)
        # a non-finite end, a span that overflows, or a grid without points
        if not math.isfinite(stop - start) or n < 1:
            raise ValueError
        return start, stop, n
    return _parse_fields("--grid", spec, "start:stop:n", build)


def _linspace(start: float, stop: float, n: int) -> list:
    """np.linspace(start, stop, n) in Python floats, bit for bit: numpy's formula, n >= 1."""
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    step = delta / (n - 1)
    if step == 0.0:  # zero width, or a step that underflows: numpy scales by delta last
        points = [i / (n - 1) * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def _emit(args, name, data, scn: Scenario, seed=None):
    """Write <out>/<name>.csv and its manifest sidecar.

    data is a (header, columns) table, or a ScanDataset or Series, whose
    metadata goes into the sidecar as scan_meta.
    """
    from .csvio import write_rows
    from .manifest import write_manifest

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    scan_meta = None
    if isinstance(data, tuple):
        write_rows(csv_path, *data)
    else:
        data.to_csv(csv_path)
        scan_meta = dict(data.meta)
    write_manifest(out / f"{name}.manifest.json", name, scn.raw, seed, scan_meta)
    print(f"wrote {csv_path}")


def _theta1_grid():
    """The tipping angles theta1, in rad, of a precession scan without --grid."""
    import numpy as np

    return np.linspace(0, 2 * math.pi, 40)


# the n_bar of the paper's Doppler- and EIT-cooled crystals, the scenarios of fig3c and fig4c
_COOLED = (("doppler", 10.7), ("eit", 1.27))

# fitted thermometry parameters in the CLI's units: omega_com as Hz
_THERMOMETRY_UNITS = {"omega_com": ("omega_com_hz", 1.0 / TWO_PI), "n_bar": ("n_bar", 1.0)}


def _json(doc) -> str:
    """Strict JSON text: a NaN or infinity raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _finite(value):
    return value if math.isfinite(value) else None


def _fit_json(result, unit_map=None):
    """A FitResult in CLI units; non-finite numbers (unidentifiable sigmas) become null."""
    unit_map = unit_map or {}
    params = {}
    sigmas = {}
    for key, value in result.params.items():
        conv = unit_map.get(key, (key, 1.0))
        params[conv[0]] = _finite(value * conv[1])
        sigmas[conv[0]] = _finite(result.sigmas[key] * conv[1])
    return {
        "params": params,
        "sigmas": sigmas,
        "chi2_reduced": _finite(result.chi2_reduced),
        "converged": result.converged,
        "iterations": result.iterations,
        "flags": list(result.flags),
    }


# -- subcommands --------------------------------------------------------------

# the keys of an --actuators pose and the ActuatorState fields they set
_POSE_FIELDS = {"rotary_angle_deg": "rotary_angle", "linear_pos_m": "linear_pos",
                "tip_deg": "tip", "tilt_deg": "tilt"}


def cmd_geom(args, scn: Scenario):
    if args.actuators:
        doc = read_json(args.actuators)
        states = doc if isinstance(doc, list) else [doc]
        if not 1 <= len(states) <= 2 or not all(isinstance(s, dict) for s in states):
            raise ConfigError(f"bad --actuators {args.actuators}: expected one or two "
                              "poses, and each pose must be a JSON object")
        for key, value in (item for s in states for item in s.items()):
            if key not in _POSE_FIELDS:
                raise ConfigError(f"bad --actuators {args.actuators}: unknown key {key!r}")
            check_number(f"bad --actuators {args.actuators}: {key}", value)
        mirror = [ActuatorState(**{_POSE_FIELDS[key]: value for key, value in s.items()})
                  for s in states]
        try:
            geom = angle_from_actuators(mirror[0], scn.mount, mirror[-1])
        except GeometryInfeasibleError as err:
            print(_json({"feasible": False, "error": str(err)}))
            return 0
    elif args.theta is not None:
        geom = replace(scn.beams, theta_odf=math.radians(args.theta))
    else:
        geom = scn.beams
    try:  # feasible: the mount has a symmetric pose for this angle
        state = actuators_for_angle(geom.theta_odf, scn.mount)
        pose = {"rotary_angle_deg": state.rotary_angle, "linear_pos_m": state.linear_pos}
    except GeometryInfeasibleError:
        pose = None
    record = {
        "theta_deg": math.degrees(geom.theta_odf),
        "delta_k_per_m": delta_k(geom),
        "lambda_odf_m": effective_wavelength(geom) if geom.theta_odf > 0 else None,
        "feasible": pose is not None,
        "phase_at_edge_deg": misalignment_phase(geom, scn.trap.crystal_radius),
        "pose": pose,
        "angle_error_deg": math.degrees(repeatability_to_angle_error(scn.mount)),
    }
    print(_json(record))
    return 0


# the most rows a curves, fig1de or ratio-scan table evaluates in Python floats, one
# force_magnitude call a row, without loading numpy; a larger table takes arrays.  A
# row costs ~10 us and numpy's import 60-95 ms: the paths cost the same near 6,000 rows.
# The float path checks each value with core._checked, the array path runs under _run's
# np.errstate; both build every angle's geometry before they compute, so both name the
# same first angle out of range
_SMALL_TABLE = 4096


def _curves_table(args, scn: Scenario):
    """curves' and fig1de's angle grid (start, stop, n) in degrees, --grid or 1:40:80,
    their states, each --nbar or n_bar 0.1, 1 and 10, and whether the rows are few."""
    grid = _parse_grid(args.grid or "1:40:80")
    states = _parse_fields("--nbar", getattr(args, "nbar", None) or "0.1,1,10",  # fig1de has none
                           "comma-separated numbers >= 0",
                           lambda *fields: [ThermalState(n_bar=float(v)) for v in fields],
                           sep=",")
    return grid, states, grid[2] * len(states) <= _SMALL_TABLE


def _ratio_table(args, scn: Scenario):
    """ratio-scan's angle grid (start, stop, n) in degrees, --grid or the mount's window,
    and whether its rows are few."""
    if args.grid:
        grid = _parse_grid(args.grid)
    else:  # the mount's window, two points a degree and both ends; 12:36:49 by default
        lo, hi = (round(math.degrees(t), 9) for t in (scn.mount.theta_min, scn.mount.theta_max))
        grid = (lo, hi, max(2, round(2 * (hi - lo)) + 1))
    return grid, grid[2] <= _SMALL_TABLE


def cmd_curves(args, scn: Scenario):
    (start, stop, n), states, small = _curves_table(args, scn)
    if small:
        grid_deg = _linspace(start, stop, n)
        geoms = [replace(scn.beams, theta_odf=math.radians(d)) for d in grid_deg]
        strengths = [force_magnitude(g, scn.drive, scn.trap, state)
                     for state in states for g in geoms]
        columns = (grid_deg * len(states), [state.n_bar for state in states for _ in grid_deg],
                   [s.f0 for s in strengths],
                   [math.nan if s.j_bar is None else s.j_bar for s in strengths])
    else:
        import numpy as np

        grid_deg = np.linspace(start, stop, n)
        geom = replace(scn.beams, theta_odf=np.radians(grid_deg))
        strengths = [force_magnitude(geom, scn.drive, scn.trap, state) for state in states]
        no_coupling = np.full(n, math.nan)
        columns = (np.tile(grid_deg, len(states)),
                   np.repeat([state.n_bar for state in states], n),
                   np.concatenate([s.f0 for s in strengths]),
                   np.concatenate([no_coupling if s.j_bar is None else s.j_bar
                                   for s in strengths]))
    _emit(args, "curves", (["theta_deg", "n_bar", "F0_N", "Jbar_rad_s"], columns), scn)
    return 0


def cmd_ratio_scan(args, scn: Scenario):
    (start, stop, n), small = _ratio_table(args, scn)
    # |delta_ac| and Gamma are held theta-independent: the fixed-optical-power
    # comparison the ratio is defined for
    if small:
        geoms = [replace(scn.beams, theta_odf=math.radians(d)) for d in _linspace(start, stop, n)]
        theta_deg = [math.degrees(g.theta_odf) for g in geoms]
        f0 = [force_magnitude(g, scn.drive, scn.trap, scn.thermal).f0 for g in geoms]
    else:
        import numpy as np

        theta = np.radians(np.linspace(start, stop, n))
        theta_deg = np.degrees(theta)
        f0 = force_magnitude(replace(scn.beams, theta_odf=theta), scn.drive, scn.trap,
                             scn.thermal).f0
    gamma = scn.drive.gamma
    if gamma <= 0:
        raise ConfigError("ratio-scan needs drive.gamma_per_s > 0")
    if small:
        columns = (theta_deg, f0, [gamma] * n, [_checked("F0/Gamma", v / gamma) for v in f0])
    else:
        columns = (theta_deg, f0, np.full(n, gamma), f0 / gamma)
    _emit(args, "ratio_scan", (["theta_deg", "F0_N", "Gamma_Hz", "ratio"], columns), scn)
    return 0


def cmd_simulate(args, scn: Scenario):
    import numpy as np

    from .simulate import (
        simulate_angle_drift,
        simulate_gamma_decay,
        simulate_path_noise,
        simulate_precession,
        simulate_thermometry,
    )

    if args.model == "thermometry":
        grid_hz = np.linspace(*_parse_grid(args.grid)) if args.grid else (
            scn.trap.omega_com / TWO_PI + np.linspace(-3e3, 3e3, 30))
        dataset = simulate_thermometry(
            scn.beams, scn.drive, scn.trap, scn.thermal,
            TWO_PI * grid_hz, shots=args.shots, seed=args.seed)
    elif args.model == "precession":
        grid = np.radians(np.linspace(*_parse_grid(args.grid))) if args.grid else _theta1_grid()
        strengths = force_magnitude(scn.beams, scn.drive, scn.trap, scn.thermal)
        if strengths.j_bar is None:
            raise ResonanceSingularityError("precession needs a nonzero detuning mu - omega_com")
        dataset = simulate_precession(
            strengths.j_bar, scn.drive.gamma, scn.drive.tau, grid,
            shots=args.shots, seed=args.seed)
    elif args.model == "gamma":
        if scn.drive.gamma <= 0:
            raise ConfigError("simulate gamma needs drive.gamma_per_s > 0")
        # by default 2 Gamma tau runs from 0.1 to 2: a shot tells most about Gamma near 0.8
        tau = np.linspace(*_parse_grid(args.grid)) if args.grid else (
            np.linspace(0.05, 1.0, 20) / scn.drive.gamma)
        dataset = simulate_gamma_decay(scn.drive.gamma, tau, shots=args.shots, seed=args.seed)
    elif args.model == "drift":
        dataset = simulate_angle_drift(args.duration, args.dt, args.rate, args.jitter, args.seed)
    else:
        dataset = simulate_path_noise(args.duration, args.sample_rate, args.seed)
    _emit(args, args.model, dataset, scn, args.seed)
    return 0


def cmd_fit(args, scn: Scenario):
    from .csvio import ScanDataset
    from .fitting import fit_far_detuned_gamma, fit_precession, fit_thermometry

    dataset = ScanDataset.from_csv(args.data)
    if args.model == "thermometry":
        result = fit_thermometry(dataset, scn.beams, scn.drive, scn.trap)
        payload = _fit_json(result, _THERMOMETRY_UNITS)
    elif args.model == "precession":
        result = fit_precession(dataset, scn.drive.gamma, scn.drive.tau)
        payload = _fit_json(result)
    else:
        result = fit_far_detuned_gamma(dataset)
        payload = _fit_json(result, {"gamma": ("gamma_per_s", 1.0)})
    print(_json(payload))
    return 0 if result.converged else 2


def cmd_optimize_angle(args, scn: Scenario):
    from .manifest import make_manifest

    window = None  # the mount's window
    if args.window is not None:
        window = _parse_fields("--window", args.window, "lo:hi", lambda lo, hi: (
            math.radians(_finite_float(lo)), math.radians(_finite_float(hi))))
    theta, ratio = optimize_theta(scn.trap, scn.drive, scn.thermal, scn.mount, window)
    provenance = make_manifest("optimize-angle", scn.raw)
    del provenance["timestamp"]  # the same inputs print the same bytes
    record = {
        "theta_deg": math.degrees(theta),
        "ratio_N_s": ratio,
        "ratio_yN_per_Hz": _checked("F0/Gamma in yN/Hz", ratio * 1e24),
        "provenance": provenance,
    }
    print(_json(record))
    return 0


# -- figure-reproduction drivers ----------------------------------------------


def _warn_flagged(fit_name, result):
    """Name a flagged or unconverged figure fit on stderr; its output is still written."""
    flags = result.flags if result.converged else ("unconverged", *result.flags)
    if flags:
        print(f"warning: {fit_name}: {', '.join(flags)}", file=sys.stderr)


def cmd_fig3c(args, scn: Scenario):
    import numpy as np

    from .fitting import fit_thermometry
    from .simulate import simulate_thermometry

    fits = {}
    for label, n_bar in _COOLED:
        state = ThermalState(n_bar=n_bar)
        grid = scn.trap.omega_com + TWO_PI * np.linspace(-3e3, 3e3, 30)
        dataset = simulate_thermometry(scn.beams, scn.drive, scn.trap, state,
                                       grid, shots=args.shots, seed=args.seed)
        _emit(args, f"fig3c_{label}", dataset, scn, args.seed)
        result = fit_thermometry(dataset, scn.beams, scn.drive, scn.trap)
        _warn_flagged(f"fig3c {label}", result)
        fits[label] = _fit_json(result, _THERMOMETRY_UNITS)
    out = Path(args.out) / "fig3c_fits.json"
    out.write_text(_json(fits) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_fig4c(args, scn: Scenario):
    import numpy as np

    from .fitting import fit_f0_sq
    from .simulate import _precession_scans

    theta_list = [14.0, 17.0, 20.0, 24.0, 28.0]
    deltas = [TWO_PI * delta_hz for delta_hz in (1.5e3, 2.0e3, 3.0e3)]
    if scn.drive.gamma <= 0:  # checked before any scan is drawn: the ratio divides by it
        raise ConfigError("reproduce fig4c needs drive.gamma_per_s > 0")
    # the coupling scales with delta_ac^2, and F0 with |delta_ac|; floor the probe
    # drive so the weakest operating point still precesses above the shot noise
    delta_ac_probe = max(abs(scn.drive.delta_ac), TWO_PI * 2.5e3)
    drives = [replace(scn.drive, delta_ac=delta_ac_probe, mu=scn.trap.omega_com + delta)
              for delta in deltas]
    if any(drive.mu == scn.trap.omega_com for drive in drives):  # omega_com absorbs delta
        raise ResonanceSingularityError("precession needs a nonzero detuning mu - omega_com")
    geom = replace(scn.beams, theta_odf=np.radians(theta_list))
    cases = []  # (label, theta_deg, Jbar at each detuning, seed of the first detuning)
    for label, n_bar in _COOLED:
        state = ThermalState(n_bar=n_bar)
        # one array call per detuning; item i holds Jbar at angle i for each detuning
        j_bars = zip(*(force_magnitude(geom, d, scn.trap, state).j_bar.tolist() for d in drives))
        for i, (theta_deg, j_bar_i) in enumerate(zip(theta_list, j_bars)):
            cases.append((label, theta_deg, j_bar_i,
                          args.seed + 1000 * i + (0 if label == "doppler" else 500)))
    # all 30 scans in one sampler call; every drive has the scenario's gamma and tau
    datasets = iter(_precession_scans(
        [j_bar for case in cases for j_bar in case[2]], scn.drive.gamma, scn.drive.tau,
        _theta1_grid(), args.shots,
        [case[3] + j for case in cases for j in range(len(deltas))]))
    rows = []
    for label, theta_deg, _, _ in cases:
        result = fit_f0_sq([next(datasets) for _ in deltas], scn.drive.gamma, scn.drive.tau,
                           scn.trap, deltas)
        _warn_flagged(f"fig4c {label} {theta_deg:g} deg", result)
        f0 = math.sqrt(result.params["f0_sq"])
        rows.append((label, theta_deg, f0, scn.drive.gamma, f0 / scn.drive.gamma))
    _emit(args, "fig4c", (["scenario", "theta_deg", "F0_N", "Gamma_Hz", "ratio"], zip(*rows)),
          scn, args.seed)
    return 0


def cmd_fig5(args, scn: Scenario):
    from .simulate import simulate_angle_drift, simulate_path_noise

    drift = simulate_angle_drift(6000.0, 10.0, 0.002, 5e-4, args.seed)
    _emit(args, "fig5a_drift", drift, scn, args.seed)
    noise = simulate_path_noise(200.0, 100.0, args.seed)
    _emit(args, "fig5b_pathnoise", noise, scn, args.seed)
    return 0


# -- parser -------------------------------------------------------------------

# argparse keywords of each flag; a leaf parser takes only the flags it reads
_FLAGS = {
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--shots": dict(type=_shots, default=500, help="shots per scan point"),
    "--grid": dict(help="grid start:stop:n (thermometry: mu/2pi in Hz; gamma: tau in s; "
                        "otherwise degrees)"),
    "--nbar": dict(help="comma-separated n_bar list"),
    "--duration": dict(type=_finite_float, default=6000.0, help="series length in s"),
    "--dt": dict(type=_finite_float, default=10.0, help="drift sample spacing in s"),
    "--sample-rate": dict(type=_finite_float, default=100.0, help="path-noise rate in Hz"),
    "--rate": dict(type=_finite_float, default=0.002, help="drift rate in deg/h"),
    "--jitter": dict(type=_finite_float, default=0.0, help="drift jitter in deg"),
    "--data": dict(required=True, help="dataset CSV (abscissa,p_up,sigma)"),
    "--window": dict(help="theta window lo:hi in degrees (default: the mount's window)"),
    "--theta": dict(type=_finite_float, help="full separation angle in degrees"),
    "--actuators": dict(help="JSON file with one or two actuator poses"),
}


# every command leaf: its words, function, help line and the flags it reads
_LEAVES = [
    (("geom",), cmd_geom, "beam geometry record for an angle or actuator pose",
     ("--theta", "--actuators")),
    (("curves",), cmd_curves, "F0 and Jbar versus angle per n_bar", ("--out", "--grid", "--nbar")),
    (("ratio-scan",), cmd_ratio_scan, "F0/Gamma versus angle", ("--out", "--grid")),
    *((("simulate", model), cmd_simulate, f"shot-noise {model} scan",
       ("--out", "--seed", "--shots", "--grid"))
      for model in ("thermometry", "precession", "gamma")),
    (("simulate", "drift"), cmd_simulate, "crossing-angle drift series",
     ("--out", "--seed", "--duration", "--dt", "--rate", "--jitter")),
    (("simulate", "pathnoise"), cmd_simulate, "optical path-length noise series",
     ("--out", "--seed", "--duration", "--sample-rate")),
    *((("fit", model), cmd_fit, f"fit a {model} scan", ("--data",))
      for model in ("thermometry", "precession", "gamma")),
    (("optimize-angle",), cmd_optimize_angle, "maximize F0/Gamma over an angle window",
     ("--window",)),
    (("reproduce", "fig1de"), cmd_curves, "F0 and Jbar curves at n_bar 0.1, 1 and 10",
     ("--out", "--grid")),
    (("reproduce", "fig3c"), cmd_fig3c, "Doppler and EIT thermometry scans and fits",
     ("--out", "--seed", "--shots")),
    (("reproduce", "fig4c"), cmd_fig4c, "F0/Gamma from precession fits versus angle",
     ("--out", "--seed", "--shots")),
    (("reproduce", "fig5"), cmd_fig5, "angle drift and path-noise series", ("--out", "--seed")),
]

# the commands that take a model or figure name first: what their leaves are named, and help
_GROUPS = {"simulate": ("MODEL", "generate a synthetic dataset"),
           "fit": ("MODEL", "fit a dataset CSV"),
           "reproduce": ("FIGURE", "regenerate a figure dataset end to end")}


def build_parser(argv=None):
    """The odfkit parser; given the argv it is to parse, only the parts that argv reaches.

    The leaves of a group that argv does not name, and the flags of every leaf
    but the one it names, are left out: no message of that parse shows them,
    and they are half of the ~6 ms that building the whole parser takes.
    """
    wanted = None if not argv else tuple(argv[:2] if argv[0] in _GROUPS else argv[:1])
    parser = argparse.ArgumentParser(
        prog="odfkit",
        allow_abbrev=False,
        description="Tunable spin-spin interaction design toolkit for Penning-trap crystals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, func, summary, flags in _LEAVES:
        owner = sub
        if len(words) == 2:
            if words[0] not in groups:
                name, help_line = _GROUPS[words[0]]
                groups[words[0]] = sub.add_parser(
                    words[0], help=help_line, allow_abbrev=False).add_subparsers(
                        dest=name.lower(), required=True)
            if wanted is not None and wanted[0] != words[0]:
                continue
            owner = groups[words[0]]
        p = owner.add_parser(words[-1], help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        if wanted is not None and wanted != words:
            continue
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--scenario", help="named scenario from the config file")
        # geom takes an angle or a pose, not both
        target = p.add_mutually_exclusive_group() if words == ("geom",) else p
        for flag in flags:
            target.add_argument(flag, **_FLAGS[flag])
    return parser


# the commands that compute in math alone, and how each table command sizes its table;
# built at import, like _LEAVES, so a command wrapped later (perfbench's tracer) still
# matches args.func
_SCALAR_COMMANDS = (cmd_geom, cmd_optimize_angle)
_TABLES = {cmd_curves: _curves_table, cmd_ratio_scan: _ratio_table}


def _in_floats(args, scn: Scenario) -> bool:
    """Whether the invocation computes in Python floats alone, so numpy stays unloaded:
    geom, optimize-angle, and a table of at most _SMALL_TABLE rows."""
    if args.func in _TABLES:
        return _TABLES[args.func](args, scn)[-1]
    return args.func in _SCALAR_COMMANDS


def _import_numpy():
    """numpy, loaded with OpenBLAS on one thread unless the user set a count.

    odfkit's BLAS work is 1x1 and 2x2 solves and dot products over n-vectors:
    an OpenBLAS pool thread only adds start-up time, slows large fits, and makes
    their last bits depend on the core count.  OpenBLAS reads the variable once,
    when numpy loads it; it is removed again so that it reaches no process this
    one starts.  A count the user set wins, and where numpy is already loaded
    (a library process) this does nothing.
    """
    one_thread = "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return np


def main(argv=None) -> int:
    """Run one odfkit command and return its exit code.

    Without argv, main is the process's entry point (`odfkit`, `python -m
    odfkit.cli`): it reads sys.argv and runs the command with the cyclic
    collector off, since a run makes no cyclic garbage that grows with its
    input and the collections numpy's import would set off cost ~5 ms of
    every array command.  Before it returns it freezes the collector's
    objects, so that interpreter shutdown does not spend 8-22 ms traversing
    the 14k (geom) to 24k (array commands) objects the imports left only to
    have the OS free them.  atexit handlers and stdio flushing still run.
    A caller that passes argv keeps its collector as it was.
    """
    if argv is not None:
        return _run(list(argv))
    gc.disable()
    code = _run(sys.argv[1:])
    gc.freeze()
    return code


def _joined(argv):
    """argv with each `--flag -value` pair joined as `--flag=-value`.

    Every odfkit flag but -h takes one value, and no flag looks like a number, so
    a token starting with a single - after a `--flag` is its value; argparse would
    read -2e-3 or -180:180:5 as a flag.  A value such as `--jitter` stays a flag.
    """
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if (token.startswith("-") and not token.startswith("--") and last.startswith("--")
                and len(last) > 2 and "=" not in last and last != "--help"):
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def _run(argv) -> int:
    argv = _joined(argv)
    flag = argv[1] if len(argv) > 1 and argv[0] in _GROUPS else ""
    if flag.startswith("-") and flag not in ("-h", "--help"):
        name = _GROUPS[argv[0]][0]
        print(f"error: {flag.split('=')[0]} comes after the {name.lower()} name: "
              f"odfkit {argv[0]} {name} [flags]", file=sys.stderr)
        return 1
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        scn = load_config(args.config, args.scenario)
        if _in_floats(args, scn):  # no numpy to load
            code = args.func(args, scn)
        else:
            with _import_numpy().errstate(divide="raise", over="raise", invalid="raise"):
                code = args.func(args, scn)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: send what is left to devnull, exit 1 as on EPIPE
        # (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as err:  # ConfigError among them
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:  # a value so large or small that a result leaves floats
        print(f"error: {err}: an input is out of the range the model computes in",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
