import json
import math

import pytest

from odfkit.configio import _SCHEMA, DEFAULT_CONFIG, ConfigError, build_scenario, load_config
from odfkit.core import OdfDrive, ThermalState, TrapIonConfig, fields
from odfkit.geometry import BeamGeometry, MountGeometry
from odfkit.manifest import config_digest, make_manifest, write_manifest


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_defaults_load_without_file():
    scn = load_config(None)
    assert scn.trap.n_ions == 125
    assert scn.beams.theta_odf == pytest.approx(math.radians(28.0))
    assert scn.thermal.n_bar == 1.27
    assert scn.drive.mu - scn.trap.omega_com == pytest.approx(2 * math.pi * 2e3, rel=1e-9)


@pytest.mark.parametrize("build", [
    lambda: TrapIonConfig(), lambda: OdfDrive(), lambda: ThermalState(),
    lambda: BeamGeometry(theta_odf=0.5), lambda: MountGeometry(),
])
def test_run_defaults_have_one_owner(build):
    # DEFAULT_CONFIG holds the run's values: the types have no copy of them to drift from
    with pytest.raises(TypeError):
        build()


def test_partial_file_merges_over_defaults(tmp_path):
    path = write(tmp_path, {"thermal": {"n_bar": 10.7}})
    scn = load_config(path)
    assert scn.thermal.n_bar == 10.7
    assert scn.trap.n_ions == 125  # untouched default


def test_scenario_overrides(tmp_path):
    doc = {
        "thermal": {"n_bar": 0.5},
        "scenarios": {
            "doppler": {"thermal": {"n_bar": 10.7}},
            "eit": {"thermal": {"n_bar": 1.27}, "beams": {"theta_odf_deg": 14.0}},
        },
    }
    path = write(tmp_path, doc)
    assert load_config(path).thermal.n_bar == 0.5
    assert load_config(path, "doppler").thermal.n_bar == 10.7
    eit = load_config(path, "eit")
    assert eit.thermal.n_bar == 1.27
    assert eit.beams.theta_odf == pytest.approx(math.radians(14.0))


def test_unknown_scenario_lists_known(tmp_path):
    path = write(tmp_path, {"scenarios": {"doppler": {}}})
    with pytest.raises(ConfigError) as err:
        load_config(path, "nope")
    assert "doppler" in str(err.value)


def test_unknown_key_is_named(tmp_path):
    path = write(tmp_path, {"trap": {"ion_mass_kg": 1.5e-26}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "ion_mass_kg" in str(err.value)


@pytest.mark.parametrize("section,key", [("beams", "theta_eit_deg"), ("trap", "omega_rot_hz")])
def test_removed_keys_are_rejected_by_name(tmp_path, section, key):
    # both were parsed and never read; no compatibility path keeps them
    path = write(tmp_path, {section: {key: 1.0}})
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, {"lasers": {"power_w": 1.0}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "lasers" in str(err.value)


def test_wrong_type_is_diagnosed(tmp_path):
    path = write(tmp_path, {"drive": {"tau_s": "fast"}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "tau_s" in str(err.value) and "number" in str(err.value)


def test_n_ions_must_be_integer(tmp_path):
    path = write(tmp_path, {"trap": {"n_ions": 125.5}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write(tmp_path, {"trap": {"n_ions": True}})  # a bool is an int to Python, not to JSON
    with pytest.raises(ConfigError, match="^config.trap.n_ions: expected integer, got bool$"):
        load_config(path)


def test_invalid_json_is_diagnosed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "broken.json" in str(err.value)


def test_unit_conversion_at_the_boundary():
    scn = build_scenario(DEFAULT_CONFIG)
    assert scn.trap.omega_com == pytest.approx(2 * math.pi * 1.1e6, rel=1e-12)
    assert scn.drive.tau == 500e-6
    assert scn.mount.theta_min == pytest.approx(math.radians(12.0))
    assert scn.mount.theta_max == pytest.approx(math.radians(36.0))


def test_mount_keys_set_only_their_fields(tmp_path):
    # an absent mount section leaves every MountGeometry default; a given key sets one field
    lam = DEFAULT_CONFIG["beams"]["laser_wavelength_m"]
    assert load_config().mount == MountGeometry(lam)
    path = write(tmp_path, {"mount": {"theta_max_deg": 50, "linear_travel_m": 0.03}})
    mount = load_config(path).mount
    assert mount == MountGeometry(lam, theta_max=math.radians(50.0), linear_travel=0.03)


def test_gamma_composition_consistency(tmp_path):
    # Gamma = (raman + elastic) / 2 when both parts are given, in one layer or across two
    parts = {"gamma_raman_per_s": 150.0, "gamma_elastic_per_s": 30.0}
    assert load_config(write(tmp_path, {"drive": parts})).drive.gamma == 90.0
    split = {"drive": {"gamma_raman_per_s": 150.0},
             "scenarios": {"s": {"drive": {"gamma_elastic_per_s": 30.0}}}}
    assert load_config(write(tmp_path, split), "s").drive.gamma == 90.0
    assert load_config(write(tmp_path, {"drive": {**parts, "gamma_per_s": 90}})).drive.gamma == 90.0
    with pytest.raises(ConfigError, match=r"\(gamma_raman \+ gamma_elastic\)/2: got 100.0 vs 90.0"):
        load_config(write(tmp_path, {"drive": {**parts, "gamma_per_s": 100.0}}))
    # one part alone is an input error naming both keys, not the default Gamma
    with pytest.raises(ConfigError, match="gamma_raman_per_s and gamma_elastic_per_s"):
        load_config(write(tmp_path, split))


# a valid value, unlike the default, of each config key; the two Gamma parts go as a pair
KEY_VALUES = {
    ("trap", "ion_mass_amu"): 9.1, ("trap", "omega_com_hz"): 1.2e6, ("trap", "n_ions"): 126,
    ("trap", "crystal_radius_m"): 100e-6, ("drive", "delta_ac_hz"): 900.0,
    ("drive", "mu_hz"): 1.2e6, ("drive", "tau_s"): 400e-6, ("drive", "gamma_per_s"): 50.0,
    ("beams", "laser_wavelength_m"): 300e-9, ("beams", "theta_odf_deg"): 20.0,
    ("beams", "tilt_error_deg"): 1.0, ("thermal", "n_bar"): 2.0,
    ("mount", "d_axial_m"): 30e-3, ("mount", "d_radial_m"): 4e-3,
    ("mount", "theta_min_deg"): 13.0, ("mount", "theta_max_deg"): 35.0,
    ("mount", "crossing_tolerance_m"): 20e-6, ("mount", "linear_travel_m"): 22e-3,
}
GAMMA_PARTS = {"gamma_raman_per_s": 30.0, "gamma_elastic_per_s": 10.0}


def test_every_key_sets_a_field_and_every_field_has_a_key(tmp_path):
    # a key that moves no Scenario field is dead; a field that no key moves is out of reach
    cases = [{section: {key: value}} for (section, key), value in KEY_VALUES.items()]
    cases.append({"drive": GAMMA_PARTS})
    assert ({(section, key) for case in cases for section, body in case.items() for key in body}
            == {(section, key) for section, keys in _SCHEMA.items() for key in keys})
    base = load_config()
    parts = ("trap", "drive", "beams", "thermal", "mount")
    reached = set()
    for case in cases:
        scn = load_config(write(tmp_path, case))
        moved = {(type(getattr(base, part)).__name__, name) for part in parts
                 for name in fields(getattr(base, part))
                 if getattr(getattr(scn, part), name) != getattr(getattr(base, part), name)}
        assert moved, case
        reached |= moved
    assert reached == {(cls.__name__, name)
                       for cls in (TrapIonConfig, OdfDrive, BeamGeometry, ThermalState,
                                   MountGeometry)
                       for name in fields(cls)}


def test_int_config_values_become_floats():
    merged = {section: dict(body) for section, body in DEFAULT_CONFIG.items()}
    merged["drive"] = dict(merged["drive"], gamma_per_s=100, tau_s=1)
    merged["thermal"] = {"n_bar": 2}
    scn = build_scenario(merged)
    assert type(scn.drive.gamma) is float and scn.drive.gamma == 100.0
    assert type(scn.drive.tau) is float and type(scn.thermal.n_bar) is float
    assert type(scn.trap.n_ions) is int


def test_int_too_large_for_a_float_is_named(tmp_path):
    path = write(tmp_path, {"drive": {"tau_s": 10 ** 400}})
    with pytest.raises(ConfigError, match="config.drive.tau_s: expected a finite number"):
        load_config(path)


def test_config_digest_is_canonical():
    a = {"trap": {"n_ions": 125, "omega_com_hz": 1.1e6}}
    b = {"trap": {"omega_com_hz": 1.1e6, "n_ions": 125}}  # key order differs
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 64
    c = {"trap": {"n_ions": 126, "omega_com_hz": 1.1e6}}
    assert config_digest(a) != config_digest(c)


def test_manifest_fields():
    m = make_manifest("curves", DEFAULT_CONFIG, seed=3)
    assert list(m) == ["command", "config_digest", "seed", "tool_version", "timestamp"]
    assert m["command"] == "curves"
    assert m["seed"] == 3
    assert m["config_digest"] == config_digest(DEFAULT_CONFIG)
    assert m["timestamp"].endswith("+00:00")  # UTC ISO-8601


def test_write_manifest_round_trip(tmp_path):
    path = tmp_path / "run.manifest.json"
    m = write_manifest(path, "geom", DEFAULT_CONFIG, seed=9)
    doc = json.loads(path.read_text())
    assert doc["command"] == "geom"
    assert doc["seed"] == 9
    assert doc == m
    assert doc["tool_version"]
