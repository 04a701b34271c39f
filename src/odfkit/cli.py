"""Command-line front end.

Subcommands: geom, curves, ratio-scan, simulate, fit, optimize-angle,
reproduce.  All numeric CLI units are Hz, degrees, seconds, meters (and
yoctonewtons where labeled); CSV outputs carry a header row, floats in
full-precision scientific notation, and each output file is accompanied by
a JSON manifest sidecar recording the config digest and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .configio import ConfigError, Scenario, load_config
from .constants import TWO_PI
from .core import OdfDrive, ThermalState
from .fitting import (
    FitInputError,
    f0_from_jbar,
    fit_far_detuned_gamma,
    fit_precession,
    fit_thermometry,
    optimize_theta,
    weighted_f0,
)
from .geometry import (
    ActuatorState,
    BeamGeometry,
    GeometryInfeasibleError,
    angle_from_actuators,
    delta_k,
    effective_wavelength,
    misalignment_phase,
)
from .interactions import force_magnitude
from .manifest import write_manifest
from .simulate import (
    DriftModel,
    PathNoiseModel,
    ScanDataset,
    _write_rows,
    simulate_angle_drift,
    simulate_path_noise,
    simulate_precession,
    simulate_thermometry,
)


def _parse_fields(flag: str, spec: str, form: str, build, sep=":"):
    """build(*fields) of a sep-separated argv value; errors name the flag."""
    try:
        return build(*spec.split(sep))
    except (TypeError, ValueError) as err:  # TypeError: wrong number of fields
        raise ConfigError(f"bad {flag} {spec!r}, expected {form}") from err


def _parse_grid(spec: str) -> np.ndarray:
    return _parse_fields("--grid", spec, "start:stop:n",
                         lambda start, stop, n: np.linspace(float(start), float(stop), int(n)))


def _emit(args, name, data, scn: Scenario, seed=None):
    """Write <out>/<name>.csv and its manifest sidecar.

    data is a ScanDataset, whose metadata goes into the sidecar, or a
    (header, rows) table.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    sidecar = scn.raw
    if isinstance(data, ScanDataset):
        data.to_csv(csv_path)
        sidecar = dict(scn.raw, scan_meta=dict(data.meta))
    else:
        _write_rows(csv_path, *data)
    write_manifest(out / f"{name}.manifest.json", name, sidecar, seed)
    print(f"wrote {csv_path}")


# fitted thermometry parameters in the CLI's units: omega_com as Hz
_THERMOMETRY_UNITS = {"omega_com": ("omega_com_hz", 1.0 / TWO_PI), "n_bar": ("n_bar", 1.0)}


def _fit_result_json(result, unit_map=None):
    unit_map = unit_map or {}
    params = {}
    sigmas = {}
    for key, value in result.params.items():
        conv = unit_map.get(key, (key, 1.0))
        params[conv[0]] = value * conv[1]
        sigmas[conv[0]] = result.sigmas[key] * conv[1]
    return {
        "params": params,
        "sigmas": sigmas,
        "chi2_reduced": result.chi2_reduced,
        "converged": result.converged,
        "iterations": result.iterations,
        "flags": list(result.flags),
    }


# -- subcommands --------------------------------------------------------------


def cmd_geom(args, scn: Scenario):
    if args.actuators:
        with open(args.actuators) as fh:
            doc = json.load(fh)
        states = doc[:2] if isinstance(doc, list) else [doc]
        if not states or not all(isinstance(s, dict) for s in states):
            raise ConfigError(f"bad --actuators {args.actuators}: expected one or two "
                              "poses, and each pose must be a JSON object")
        mirror = [
            ActuatorState(
                rotary_angle=s.get("rotary_angle_deg", 0.0),
                linear_pos=s.get("linear_pos_m", 0.0),
                tip=s.get("tip_deg", 0.0),
                tilt=s.get("tilt_deg", 0.0),
            )
            for s in states
        ]
        try:
            geom = angle_from_actuators(mirror[0], scn.mount, mirror[-1])
            feasible = True
        except GeometryInfeasibleError as err:
            print(json.dumps({"feasible": False, "error": str(err)}, indent=2))
            return 0
    elif args.theta is not None:
        geom = BeamGeometry(
            theta_odf=math.radians(args.theta),
            laser_wavelength=scn.beams.laser_wavelength,
            tilt_error=scn.beams.tilt_error,
        )
        feasible = scn.mount.theta_min <= geom.theta_odf <= scn.mount.theta_max
    else:
        geom = scn.beams
        feasible = scn.mount.theta_min <= geom.theta_odf <= scn.mount.theta_max
    record = {
        "theta_deg": math.degrees(geom.theta_odf),
        "delta_k_per_m": delta_k(geom),
        "lambda_odf_m": effective_wavelength(geom) if geom.theta_odf > 0 else None,
        "feasible": bool(feasible),
        "phase_at_edge_deg": misalignment_phase(geom, scn.trap.crystal_radius),
    }
    print(json.dumps(record, indent=2))
    return 0


def cmd_curves(args, scn: Scenario):
    grid_deg = _parse_grid(args.grid or "1:40:80")
    states = _parse_fields("--nbar", args.nbar or "0.1,1,10",
                           "comma-separated numbers >= 0",
                           lambda *fields: [ThermalState(n_bar=float(v)) for v in fields],
                           sep=",")
    geom = BeamGeometry(theta_odf=np.radians(grid_deg),
                        laser_wavelength=scn.beams.laser_wavelength)
    rows = []
    for state in states:
        s = force_magnitude(geom, scn.drive, scn.trap, state)
        jb = s.j_bar.tolist() if s.j_bar is not None else itertools.repeat(math.nan)
        rows += zip(grid_deg.tolist(), itertools.repeat(state.n_bar), s.f0.tolist(), jb)
    _emit(args, "curves", (["theta_deg", "n_bar", "F0_N", "Jbar_rad_s"], rows), scn)
    return 0


def cmd_ratio_scan(args, scn: Scenario):
    # |delta_ac| and Gamma are held theta-independent: the fixed-optical-power
    # comparison the ratio is defined for
    theta = np.radians(_parse_grid(args.grid or "12:36:49"))
    geom = BeamGeometry(theta_odf=theta, laser_wavelength=scn.beams.laser_wavelength)
    s = force_magnitude(geom, scn.drive, scn.trap, scn.thermal)
    if s.f0_over_gamma is None:
        raise ConfigError("ratio-scan needs drive.gamma_per_s > 0")
    rows = zip(np.degrees(theta).tolist(), s.f0.tolist(), itertools.repeat(scn.drive.gamma),
               s.f0_over_gamma.tolist())
    _emit(args, "ratio_scan", (["theta_deg", "F0_N", "Gamma_Hz", "ratio"], rows), scn)
    return 0


def cmd_simulate(args, scn: Scenario):
    seed = args.seed
    shots = args.shots
    if args.model == "thermometry":
        grid_hz = _parse_grid(args.grid) if args.grid else (
            scn.trap.omega_com / TWO_PI + np.linspace(-3e3, 3e3, 30))
        dataset = simulate_thermometry(
            scn.beams, scn.drive, scn.trap, scn.thermal,
            TWO_PI * grid_hz, shots=shots, seed=seed)
        _emit(args, "thermometry", dataset, scn, seed)
    elif args.model == "precession":
        grid = np.radians(_parse_grid(args.grid)) if args.grid else np.linspace(0, 2 * math.pi, 40)
        strengths = force_magnitude(scn.beams, scn.drive, scn.trap, scn.thermal)
        if strengths.j_bar is None:
            raise FitInputError("precession needs a nonzero detuning mu - omega_com")
        dataset = simulate_precession(
            strengths.j_bar, scn.drive.gamma, scn.drive.tau, grid,
            shots=shots, seed=seed)
        _emit(args, "precession", dataset, scn, seed)
    elif args.model == "drift":
        model = DriftModel(linear_rate=args.rate, rms_jitter=args.jitter, seed=seed)
        dataset = simulate_angle_drift(model, args.duration, args.dt)
        _emit(args, "drift", dataset, scn, seed)
    elif args.model == "pathnoise":
        model = PathNoiseModel(seed=seed)
        dataset = simulate_path_noise(model, args.duration, args.sample_rate)
        _emit(args, "pathnoise", dataset, scn, seed)
    return 0


def cmd_fit(args, scn: Scenario):
    dataset = ScanDataset.from_csv(args.data, kind=args.model)
    if args.model == "thermometry":
        result = fit_thermometry(dataset, scn.beams, scn.drive, scn.trap)
        payload = _fit_result_json(result, _THERMOMETRY_UNITS)
    elif args.model == "precession":
        result = fit_precession(dataset, scn.drive.gamma, scn.drive.tau)
        payload = _fit_result_json(result)
    else:
        result = fit_far_detuned_gamma(dataset)
        payload = _fit_result_json(result, {"gamma": ("gamma_per_s", 1.0)})
    print(json.dumps(payload, indent=2))
    return 0 if result.converged else 2


def cmd_optimize_angle(args, scn: Scenario):
    lo_deg, hi_deg = _parse_fields("--window", args.window, "lo:hi",
                                   lambda lo, hi: (float(lo), float(hi)))
    theta, ratio = optimize_theta(
        scn.trap, scn.drive, scn.thermal,
        constraints=(math.radians(lo_deg), math.radians(hi_deg)),
        laser_wavelength=scn.beams.laser_wavelength,
        hard_limits=(scn.mount.theta_min, scn.mount.theta_max),
    )
    from .manifest import make_manifest

    record = {
        "theta_deg": math.degrees(theta),
        "ratio_N_s": ratio,
        "ratio_yN_per_Hz": ratio * 1e24,
        "provenance": make_manifest("optimize-angle", scn.raw).__dict__,
    }
    print(json.dumps(record, indent=2))
    return 0


# -- figure-reproduction drivers ----------------------------------------------


def _reproduce_fig1de(args, scn: Scenario):
    args.grid = args.grid or "1:40:80"
    args.nbar = "0.1,1,10"
    return cmd_curves(args, scn)


def _reproduce_fig3c(args, scn: Scenario):
    fits = {}
    for label, n_bar in (("doppler", 10.7), ("eit", 1.27)):
        state = ThermalState(n_bar=n_bar)
        grid = scn.trap.omega_com + TWO_PI * np.linspace(-3e3, 3e3, 30)
        dataset = simulate_thermometry(scn.beams, scn.drive, scn.trap, state,
                                       grid, shots=args.shots, seed=args.seed)
        _emit(args, f"fig3c_{label}", dataset, scn, args.seed)
        result = fit_thermometry(dataset, scn.beams, scn.drive, scn.trap)
        fits[label] = _fit_result_json(result, _THERMOMETRY_UNITS)
    out = Path(args.out) / "fig3c_fits.json"
    with open(out, "w") as fh:
        json.dump(fits, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


def _reproduce_fig4c(args, scn: Scenario):
    theta_list = [14.0, 17.0, 20.0, 24.0, 28.0]
    delta_list_hz = [1.5e3, 2.0e3, 3.0e3]
    # the coupling scales with delta_ac^2; floor the probe drive so the
    # weakest operating point still precesses above the shot noise
    delta_ac_probe = max(scn.drive.delta_ac, TWO_PI * 2.5e3)
    rows = []
    for label, n_bar in (("doppler", 10.7), ("eit", 1.27)):
        state = ThermalState(n_bar=n_bar)
        for i, theta_deg in enumerate(theta_list):
            geom = BeamGeometry(theta_odf=math.radians(theta_deg),
                                laser_wavelength=scn.beams.laser_wavelength)
            estimates = []
            for j, delta_hz in enumerate(delta_list_hz):
                delta = TWO_PI * delta_hz
                drive = OdfDrive(delta_ac=delta_ac_probe,
                                 mu=scn.trap.omega_com + delta,
                                 tau=scn.drive.tau, gamma=scn.drive.gamma)
                strengths = force_magnitude(geom, drive, scn.trap, state)
                seed = args.seed + 1000 * i + j + (0 if label == "doppler" else 500)
                dataset = simulate_precession(
                    strengths.j_bar, drive.gamma, drive.tau,
                    np.linspace(0, 2 * math.pi, 40), shots=args.shots, seed=seed)
                result = fit_precession(dataset, drive.gamma, drive.tau,
                                        init_j_bar=strengths.j_bar)
                f0, sigma_f0 = f0_from_jbar(
                    result.params["j_bar"],
                    max(result.sigmas["j_bar"], 1e-12 * abs(result.params["j_bar"])),
                    scn.trap, delta)
                estimates.append((delta, f0, sigma_f0))
            combined = weighted_f0(estimates)
            rows.append((label, theta_deg, combined.f0, scn.drive.gamma,
                         combined.f0 / scn.drive.gamma))
    _emit(args, "fig4c", (["scenario", "theta_deg", "F0_N", "Gamma_Hz", "ratio"], rows),
          scn, args.seed)
    return 0


def _reproduce_fig5(args, scn: Scenario):
    drift = simulate_angle_drift(
        DriftModel(linear_rate=0.002, rms_jitter=5e-4, seed=args.seed), 6000.0, 10.0)
    _emit(args, "fig5a_drift", drift, scn, args.seed)
    noise = simulate_path_noise(PathNoiseModel(seed=args.seed), 200.0, 100.0)
    _emit(args, "fig5b_pathnoise", noise, scn, args.seed)
    return 0


def cmd_reproduce(args, scn: Scenario):
    driver = {
        "fig1de": _reproduce_fig1de,
        "fig3c": _reproduce_fig3c,
        "fig4c": _reproduce_fig4c,
        "fig5": _reproduce_fig5,
    }[args.figure]
    return driver(args, scn)


# -- parser -------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--scenario", help="named scenario from the config file")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--shots", type=int, default=500, help="shots per scan point")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="odfkit",
        description="Tunable spin-spin interaction design toolkit for Penning-trap crystals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom", help="beam geometry record for an angle or actuator pose")
    _add_common(p)
    p.add_argument("--theta", type=float, help="full separation angle in degrees")
    p.add_argument("--actuators", help="JSON file with one or two actuator poses")
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("curves", help="F0 and Jbar versus angle per n_bar")
    _add_common(p)
    p.add_argument("--grid", help="theta grid start:stop:n in degrees")
    p.add_argument("--nbar", help="comma-separated n_bar list")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("ratio-scan", help="F0/Gamma versus angle")
    _add_common(p)
    p.add_argument("--grid", help="theta grid start:stop:n in degrees")
    p.set_defaults(func=cmd_ratio_scan)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("model", choices=["thermometry", "precession", "drift", "pathnoise"])
    p.add_argument("--grid", help="abscissa grid start:stop:n (Hz or degrees)")
    p.add_argument("--duration", type=float, default=6000.0, help="series length in s")
    p.add_argument("--dt", type=float, default=10.0, help="drift sample spacing in s")
    p.add_argument("--sample-rate", type=float, default=100.0, help="path-noise rate in Hz")
    p.add_argument("--rate", type=float, default=0.002, help="drift rate in deg/h")
    p.add_argument("--jitter", type=float, default=0.0, help="drift jitter in deg")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a dataset CSV")
    _add_common(p)
    p.add_argument("model", choices=["thermometry", "precession", "gamma"])
    p.add_argument("--data", required=True, help="dataset CSV (abscissa,p_up,sigma)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("optimize-angle", help="maximize F0/Gamma over an angle window")
    _add_common(p)
    p.add_argument("--window", default="12:36", help="theta window lo:hi in degrees")
    p.set_defaults(func=cmd_optimize_angle)

    p = sub.add_parser("reproduce", help="regenerate a figure dataset end to end")
    _add_common(p)
    p.add_argument("figure", choices=["fig1de", "fig3c", "fig4c", "fig5"])
    p.add_argument("--grid", help="theta grid for fig1de")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        scn = load_config(args.config, args.scenario)
        return args.func(args, scn)
    except (ConfigError, FitInputError, GeometryInfeasibleError, ValueError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
