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
from dataclasses import dataclass

from .constants import ATOMIC_MASS_UNIT, TWO_PI
from .core import OdfDrive, ThermalState, TrapIonConfig
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


@dataclass(frozen=True)
class Scenario:
    """Fully resolved configuration objects for one run."""

    trap: TrapIonConfig
    drive: OdfDrive
    beams: BeamGeometry
    thermal: ThermalState
    mount: MountGeometry
    raw: dict  # merged section dict, for manifests


def _validate_sections(doc: dict, path: str = "config"):
    for section, body in doc.items():
        if section == "scenarios":
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: 'scenarios' must be a table of overrides")
            for name, overrides in body.items():
                _validate_sections(overrides, f"{path}.scenarios.{name}")
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}.{section}: expected a table of keys")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}.{section}: unknown key {key!r}")
            if key == "n_ions":
                if not isinstance(value, int):
                    raise ConfigError(f"{path}.{section}.{key}: expected integer, "
                                      f"got {type(value).__name__}")
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{path}.{section}.{key}: expected number, "
                                  f"got {type(value).__name__}")
            elif isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path}.{section}.{key}: expected a finite number, "
                                  f"got {value}")


def _merge(base: dict, overrides: dict) -> dict:
    merged = copy.deepcopy(base)
    for section, body in overrides.items():
        merged.setdefault(section, {}).update(body)
    return merged


def load_config(path=None, scenario: str | None = None) -> Scenario:
    """Read a config file (or defaults), optionally applying a named scenario."""
    if path is None:
        doc = copy.deepcopy(DEFAULT_CONFIG)
    else:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: not valid JSON ({err})") from err
    _validate_sections(doc)
    scenarios = doc.pop("scenarios", {})
    merged = _merge(DEFAULT_CONFIG, doc)
    if scenario is not None:
        if scenario not in scenarios:
            known = ", ".join(sorted(scenarios)) or "(none defined)"
            raise ConfigError(f"unknown scenario {scenario!r}; known: {known}")
        merged = _merge(merged, scenarios[scenario])
    return build_scenario(merged)


def build_scenario(merged: dict) -> Scenario:
    t = merged["trap"]
    d = merged["drive"]
    b = merged["beams"]
    trap = TrapIonConfig(
        ion_mass=t["ion_mass_amu"] * ATOMIC_MASS_UNIT,
        omega_com=TWO_PI * t["omega_com_hz"],
        n_ions=t["n_ions"],
        crystal_radius=t["crystal_radius_m"],
    )
    drive = OdfDrive(
        delta_ac=TWO_PI * d["delta_ac_hz"],
        mu=TWO_PI * d["mu_hz"],
        tau=d["tau_s"],
        gamma=d.get("gamma_per_s"),
        gamma_raman=d.get("gamma_raman_per_s"),
        gamma_elastic=d.get("gamma_elastic_per_s"),
    )
    beams = BeamGeometry(
        theta_odf=math.radians(b["theta_odf_deg"]),
        laser_wavelength=b["laser_wavelength_m"],
        tilt_error=math.radians(b["tilt_error_deg"]),
    )
    thermal = ThermalState(n_bar=merged["thermal"]["n_bar"])
    mnt = merged.get("mount", {})
    mount = MountGeometry(
        d_axial=mnt.get("d_axial_m", 28.6e-3),
        d_radial=mnt.get("d_radial_m", 3.0e-3),
        theta_min=math.radians(mnt.get("theta_min_deg", 12.0)),
        theta_max=math.radians(mnt.get("theta_max_deg", 36.0)),
        crossing_tolerance=mnt.get("crossing_tolerance_m", 10e-6),
        linear_travel=mnt.get("linear_travel_m", 21e-3),
        laser_wavelength=b["laser_wavelength_m"],
    )
    return Scenario(trap=trap, drive=drive, beams=beams, thermal=thermal,
                    mount=mount, raw=merged)
