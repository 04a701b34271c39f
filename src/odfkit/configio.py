"""JSON configuration loading with boundary unit conversion.

Config files carry sections `trap`, `drive`, `beams`, `thermal` (and
optionally `mount`), all in Hz / degrees / meters / seconds; internal
objects use SI with angular frequencies.  A top-level `scenarios` table
may hold named partial overrides (e.g. "doppler" vs "eit") selected with
--scenario.  Unknown keys are rejected with a diagnostic naming the key.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from .constants import ATOMIC_MASS_UNIT, TWO_PI
from .core import OdfDrive, Record, ThermalState, TrapIonConfig
from .geometry import BeamGeometry, MountGeometry


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "trap": {"ion_mass_amu", "omega_com_hz", "n_ions", "crystal_radius_m"},
    "drive": {"delta_ac_hz", "mu_hz", "tau_s", "gamma_per_s",
              "gamma_raman_per_s", "gamma_elastic_per_s"},
    "beams": {"laser_wavelength_m", "theta_odf_deg", "tilt_error_deg"},
    "thermal": {"n_bar"},
    "mount": {"d_axial_m", "d_radial_m", "theta_min_deg", "theta_max_deg",
              "crossing_tolerance_m", "linear_travel_m"},
}

DEFAULT_CONFIG = {
    "trap": {
        "ion_mass_amu": 9.012,
        "omega_com_hz": 1.1e6,
        "n_ions": 125,
        "crystal_radius_m": 150e-6,
    },
    "drive": {
        "delta_ac_hz": 800.0,
        "mu_hz": 1.102e6,
        "tau_s": 500e-6,
        "gamma_per_s": 100.0,
    },
    "beams": {
        "laser_wavelength_m": 313.1e-9,
        "theta_odf_deg": 28.0,
        "tilt_error_deg": 0.0,
    },
    "thermal": {"n_bar": 1.27},
}


class Scenario(Record):
    """Fully resolved configuration objects for one run."""

    trap: TrapIonConfig
    drive: OdfDrive
    beams: BeamGeometry
    thermal: ThermalState
    mount: MountGeometry
    raw: dict  # merged section dict, for manifests


def check_number(where: str, value) -> None:
    """Raise a ConfigError starting with `where` unless value is a finite JSON number (no bool)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # also an int too large for a float
        raise ConfigError(f"{where}: expected a finite number, got {value}")


def _validate_sections(doc, path: str = "config", what: str = "sections"):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a table of {what}")
    for section, body in doc.items():
        if section == "scenarios" and path == "config":  # a scenario holds no scenarios
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: 'scenarios' must be a table of overrides")
            for name, overrides in body.items():
                _validate_sections(overrides, f"{path}.scenarios.{name}", "overrides")
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}.{section}: expected a table of keys")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}.{section}: unknown key {key!r}")
            if key != "n_ions":
                check_number(f"{path}.{section}.{key}", value)
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{path}.{section}.{key}: expected integer, "
                                  f"got {type(value).__name__}")


def _merge(base: dict, overrides: dict) -> dict:
    merged = copy.deepcopy(base)
    for section, body in overrides.items():
        merged.setdefault(section, {}).update(body)
    return merged


def read_json(path):
    """The document in the JSON file at path; a file that is not UTF-8 JSON is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err


def load_config(path=None, scenario: str | None = None) -> Scenario:
    """Read a config file (or defaults), optionally applying a named scenario."""
    doc = {} if path is None else read_json(path)  # no file: the defaults alone
    _validate_sections(doc)
    scenarios = doc.pop("scenarios", {})
    merged = _merge(DEFAULT_CONFIG, doc)
    if scenario is not None:
        if scenario not in scenarios:
            known = ", ".join(sorted(scenarios)) or "(none defined)"
            raise ConfigError(f"unknown scenario {scenario!r}; known: {known}")
        merged = _merge(merged, scenarios[scenario])
    drive = merged["drive"]  # Gamma given only as its two parts: their mean, not the default
    layers = (doc, scenarios.get(scenario, {}))
    if {"gamma_raman_per_s", "gamma_elastic_per_s"} <= drive.keys() and not any(
            "gamma_per_s" in layer.get("drive", {}) for layer in layers):
        del drive["gamma_per_s"]
    return build_scenario(merged)


def build_scenario(merged: dict) -> Scenario:
    """The Scenario of a merged config, in SI; Gamma is gamma_per_s or the mean of its parts."""
    num = {section: {key: val if key == "n_ions" else float(val) for key, val in body.items()}
           for section, body in merged.items()}  # so an int config writes %.17e CSV columns
    t = num["trap"]
    d = num["drive"]
    b = num["beams"]
    trap = TrapIonConfig(
        ion_mass=t["ion_mass_amu"] * ATOMIC_MASS_UNIT,
        omega_com=TWO_PI * t["omega_com_hz"],
        n_ions=t["n_ions"],
        crystal_radius=t["crystal_radius_m"],
    )
    parts = [d[key] for key in ("gamma_raman_per_s", "gamma_elastic_per_s") if key in d]
    if len(parts) == 1:
        raise ConfigError("drive: give both gamma_raman_per_s and gamma_elastic_per_s, or neither")
    if parts:  # Gamma = (Gamma_Raman + Gamma_elastic) / 2
        composed = 0.5 * (parts[0] + parts[1])
        gamma = d.get("gamma_per_s", composed)
        if abs(gamma - composed) > 1e-12 * max(abs(composed), 1e-300):
            raise ConfigError("gamma must equal (gamma_raman + gamma_elastic)/2: "
                              f"got {gamma} vs {composed}")
    else:
        gamma = d["gamma_per_s"]
    drive = OdfDrive(delta_ac=TWO_PI * d["delta_ac_hz"], mu=TWO_PI * d["mu_hz"],
                     tau=d["tau_s"], gamma=gamma)
    beams = BeamGeometry(
        theta_odf=math.radians(b["theta_odf_deg"]),
        laser_wavelength=b["laser_wavelength_m"],
        tilt_error=math.radians(b["tilt_error_deg"]),
    )
    thermal = ThermalState(n_bar=num["thermal"]["n_bar"])
    # mount keys are field names with a unit suffix; absent keys keep the field defaults
    mount = MountGeometry(
        laser_wavelength=b["laser_wavelength_m"],
        **{key.rsplit("_", 1)[0]: math.radians(val) if key.endswith("_deg") else val
           for key, val in num.get("mount", {}).items()},
    )
    return Scenario(trap=trap, drive=drive, beams=beams, thermal=thermal,
                    mount=mount, raw=merged)
