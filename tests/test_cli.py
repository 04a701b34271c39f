import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import odfkit
from odfkit import cli
from odfkit.cli import build_parser, main
from odfkit.configio import DEFAULT_CONFIG, load_config
from odfkit.core import replace
from odfkit.geometry import actuators_for_angle
from odfkit.interactions import force_magnitude, precession_lineshape
from odfkit.simulate import simulate_gamma_decay

import oracles


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geom_theta_28(capsys):
    code, out, _ = run(capsys, "geom", "--theta", "28")
    assert code == 0
    record = strict_json(out)
    assert record["lambda_odf_m"] == pytest.approx(6.47e-7, abs=1e-9)
    assert record["delta_k_per_m"] == pytest.approx(9.7096e6, rel=1e-4)
    assert record["feasible"] is True


def test_geom_theta_outside_window(capsys):
    code, out, _ = run(capsys, "geom", "--theta", "40")
    assert code == 0
    assert strict_json(out)["feasible"] is False


def test_geom_actuator_pose(capsys, tmp_path):
    state = actuators_for_angle(math.radians(28.0), load_config().mount)
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"rotary_angle_deg": state.rotary_angle,
                                "linear_pos_m": state.linear_pos}))
    code, out, _ = run(capsys, "geom", "--actuators", str(pose))
    assert code == 0
    record = strict_json(out)
    assert record["feasible"] is True
    assert record["theta_deg"] == pytest.approx(28.0, abs=1e-6)


def test_geom_one_pose_list_sets_both_mirrors(capsys, tmp_path):
    pose = tmp_path / "pose.json"
    results = []
    for doc in ([{"rotary_angle_deg": 3.0}], {"rotary_angle_deg": 3.0}):
        pose.write_text(json.dumps(doc))
        results.append(run(capsys, "geom", "--actuators", str(pose)))
    assert results[0][0] == 0
    assert results[0] == results[1]


WIDE_WINDOW = {"theta_min_deg": 5.0, "theta_max_deg": 60.0}


@pytest.mark.parametrize("mount,theta,feasible", [
    (WIDE_WINDOW, "8", False),  # the linear stage would sit before its outer stop
    (WIDE_WINDOW, "50", False),  # past the 21 mm linear travel
    ({"linear_travel_m": 0.005}, "28", False),
    ({}, "12", True),  # the edges of the default window
    ({}, "36", True),
], ids=["wide-8", "wide-50", "short-travel-28", "default-12", "default-36"])
def test_geom_feasible_means_the_mount_reaches_theta(capsys, tmp_path, mount, theta, feasible):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mount": mount}))
    code, out, _ = run(capsys, "geom", "--config", str(cfg), "--theta", theta)
    record = strict_json(out)
    assert code == 0
    assert record["feasible"] is feasible
    assert record["angle_error_deg"] == pytest.approx(
        4 * 0.0014 + math.degrees(math.atan(30e-9 / 28.6e-3)), rel=1e-12)
    if not feasible:
        assert record["pose"] is None
        return
    # the printed pose is what --actuators reads, and it lands on the same angle
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(record["pose"]))
    code, out, _ = run(capsys, "geom", "--config", str(cfg), "--actuators", str(pose))
    back = strict_json(out)
    assert code == 0
    assert back["feasible"] is True
    assert abs(back["theta_deg"] - record["theta_deg"]) < 1e-9


def test_geom_actuators_past_21_mm_on_a_longer_mount(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mount": {"linear_travel_m": 0.03, "theta_max_deg": 50}}))
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"rotary_angle_deg": 11.25, "linear_pos_m": 0.02136}))
    code, out, _ = run(capsys, "geom", "--config", str(cfg), "--actuators", str(pose))
    assert code == 0
    record = strict_json(out)
    assert record["feasible"] is True
    assert record["theta_deg"] == pytest.approx(45.0, abs=1e-9)


@pytest.mark.parametrize("key,value", [
    ("d_axial_m", -1), ("d_radial_m", 0), ("linear_travel_m", -1), ("linear_travel_m", 0),
    ("crossing_tolerance_m", -1), ("theta_min_deg", 0), ("theta_max_deg", 180),
])
def test_bad_mount_value_is_one_line_error_naming_field(capsys, tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mount": {key: value}}))
    code, out, err = run(capsys, "geom", "--config", str(cfg), "--theta", "28")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert key.rsplit("_", 1)[0] in err


@pytest.mark.parametrize("doc", [[1, 2], [], 5, [{}, "pose"], [{}, {}, {"rotary_angle_deg": "x"}]],
                         ids=["numbers", "empty", "number", "string-pose", "three-poses"])
def test_geom_actuators_not_poses_is_one_line_error(capsys, tmp_path, doc):
    # a third pose was ignored without a check before
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geom", "--actuators", str(pose))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: bad --actuators {pose}: expected one or two poses")
    assert "JSON object" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("doc", [{"rotary_angle_deg": 60.0}, {"rotary_angle_deg": -60.0},
                                 {"rotary_angle_deg": 7.0, "linear_pos_m": 0.03}],
                         ids=["rotary+60", "rotary-60", "linear-30mm"])
def test_geom_actuators_past_either_travel_is_infeasible(capsys, tmp_path, doc):
    # a rotary angle past +-50 deg was an exit-1 error, unlike a linear position past its travel
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geom", "--actuators", str(pose))
    assert (code, err) == (0, "")
    record = strict_json(out)
    assert record["feasible"] is False and "travel" in record["error"]


@pytest.mark.parametrize("doc,key", [
    ({"rotary_angle_deg": "7"}, "rotary_angle_deg"), ({"linear_pos_m": None}, "linear_pos_m"),
    ({"tip_deg": True}, "tip_deg"), ({"tilt_deg": math.nan}, "tilt_deg"),
    ({"rotary_deg": 7.0}, "rotary_deg"),
], ids=["string", "null", "bool", "nan", "unknown-key"])
def test_geom_actuators_bad_pose_value_names_key(capsys, tmp_path, doc, key):
    # a string or null was a TypeError traceback, a NaN tip a JSON error, an unknown key ignored
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geom", "--actuators", str(pose))
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad --actuators") and key in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{}"], ids=["malformed", "not-utf-8"])
@pytest.mark.parametrize("flag", ["--config", "--actuators"])
def test_json_file_that_is_not_utf8_json_names_the_file(capsys, tmp_path, flag, content):
    # the JSON or codec message alone before, without the file
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "geom", flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1


def test_curves_writes_csv_and_manifest(capsys, tmp_path):
    code, _, _ = run(capsys, "curves", "--out", str(tmp_path),
                     "--grid", "10:30:5", "--nbar", "1.27")
    assert code == 0
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,n_bar,F0_N,Jbar_rad_s"
    assert len(lines) == 6
    manifest = strict_json((tmp_path / "curves.manifest.json").read_text())
    assert manifest["command"] == "curves"


@pytest.mark.parametrize("nbar", ["x", "1,,2"])
def test_curves_unparsable_nbar_names_flag(capsys, tmp_path, nbar):
    code, _, err = run(capsys, "curves", "--out", str(tmp_path), "--nbar", nbar)
    assert code == 1
    assert err.startswith("error: bad --nbar") and len(err.splitlines()) == 1


@pytest.mark.parametrize("nbar", ["nan", "inf", "-1"])
def test_curves_non_finite_nbar_names_flag(capsys, tmp_path, nbar):
    code, out, err = run(capsys, "curves", "--out", str(tmp_path), "--nbar", nbar,
                         "--grid", "10:20:2")
    assert code == 1
    assert out == "" and not (tmp_path / "curves.csv").exists()
    assert err.startswith("error: bad --nbar") and len(err.splitlines()) == 1


def test_curves_on_resonance_writes_nan_coupling(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"mu_hz": 1.1e6}}))
    code, _, _ = run(capsys, "curves", "--out", str(tmp_path), "--config", str(cfg),
                     "--grid", "10:30:5", "--nbar", "0,1.27")
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "curves.csv").read_text().splitlines()[1:]]
    assert len(rows) == 10
    assert all(r[3] == "nan" and float(r[2]) > 0 for r in rows)


def test_simulate_precession_on_resonance_is_one_line_error(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"mu_hz": 1.1e6}}))
    code, out, err = run(capsys, "simulate", "precession", "--out", str(tmp_path),
                         "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: precession needs a nonzero detuning mu - omega_com\n"


@pytest.mark.parametrize("command", ["curves", "ratio-scan"])
def test_grid_outside_angle_range_is_one_line_error(capsys, tmp_path, command):
    code, out, err = run(capsys, command, "--out", str(tmp_path), "--grid", "0:200:50")
    assert code == 1
    assert out == ""
    assert err == "error: theta_odf must be in [0, pi), got 3.20570678937734\n"


def test_ratio_scan_cold_ratio(capsys, tmp_path):
    code, _, _ = run(capsys, "ratio-scan", "--out", str(tmp_path), "--grid", "14:28:2")
    assert code == 0
    rows = (tmp_path / "ratio_scan.csv").read_text().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    assert ratios[1] / ratios[0] == pytest.approx(1.86, abs=0.01)


def test_ratio_scan_hot_rows_are_the_force_model(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"thermal": {"n_bar": 10.7}}))
    code, _, _ = run(capsys, "ratio-scan", "--out", str(tmp_path), "--config", str(cfg),
                     "--grid", "14:28:2")
    assert code == 0
    rows = np.loadtxt(tmp_path / "ratio_scan.csv", delimiter=",", skiprows=1)
    assert rows[1, 3] / rows[0, 3] == pytest.approx(1.3284, rel=1e-3)
    scn = load_config(str(cfg))
    s = force_magnitude(replace(scn.beams, theta_odf=np.radians(rows[:, 0])), scn.drive,
                        scn.trap, scn.thermal)
    assert np.array_equal(rows[:, 1], s.f0)
    assert np.array_equal(rows[:, 3], s.f0 / scn.drive.gamma)


def test_ratio_scan_zero_gamma_names_key(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"gamma_per_s": 0}}))
    # fig4c checks before it draws a scan; it ended in a float division by zero before
    for argv, name in ((["ratio-scan"], "ratio_scan"), (["reproduce", "fig4c"], "fig4c"),
                       (["simulate", "gamma"], "gamma")):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path), "--config", str(cfg))
        assert code == 1
        assert out == "" and not (tmp_path / f"{name}.csv").exists()
        assert err == f"error: {' '.join(argv)} needs drive.gamma_per_s > 0\n"


def test_ratio_scan_gamma_from_its_two_parts(capsys, tmp_path):
    # gamma_per_s set nowhere: Gamma is (raman + elastic)/2, not the default 100
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"gamma_raman_per_s": 10, "gamma_elastic_per_s": 20},
                               "scenarios": {"set": {"drive": {"gamma_per_s": 100}}}}))
    argv = ["ratio-scan", "--out", str(tmp_path), "--config", str(cfg), "--grid", "12:36:3"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    rows = np.loadtxt(tmp_path / "ratio_scan.csv", delimiter=",", skiprows=1)
    assert (rows[:, 2] == 15.0).all()
    assert "gamma_per_s" not in load_config(str(cfg)).raw["drive"]  # the manifest's config
    # a gamma_per_s that the scenario sets is kept, and must agree with the parts
    code, _, err = run(capsys, *argv, "--scenario", "set")
    assert code == 1 and "got 100.0 vs 15.0" in err


@pytest.mark.parametrize("mount,grid", [
    ({}, "12:36:49"),
    # a mount widened to 50 deg: the default scan reaches 50 deg, as optimize-angle does
    ({"theta_max_deg": 50, "linear_travel_m": 0.03}, "12:50:77"),
    ({"theta_min_deg": 12, "theta_max_deg": 12.2}, "12:12.2:2"),  # both ends of a narrow one
])
def test_ratio_scan_default_grid_is_the_mounts_window(capsys, tmp_path, mount, grid):
    # two points a degree over the mount's window, byte for byte that --grid
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mount": mount}))
    for name, flags in (("default", []), ("given", ["--grid", grid])):
        code, _, err = run(capsys, "ratio-scan", "--out", str(tmp_path / name),
                           "--config", str(cfg), *flags)
        assert code == 0, err
    assert ((tmp_path / "default" / "ratio_scan.csv").read_bytes()
            == (tmp_path / "given" / "ratio_scan.csv").read_bytes())


@pytest.mark.parametrize("key", ["gamma_raman_per_s", "gamma_elastic_per_s"])
def test_lone_gamma_part_is_an_error(capsys, tmp_path, key):
    # one part alone ran with the default Gamma of 100 before; the merged config decides
    cfg = tmp_path / "config.json"
    other = ({"gamma_raman_per_s", "gamma_elastic_per_s"} - {key}).pop()
    cfg.write_text(json.dumps({"drive": {key: 10},
                               "scenarios": {"both": {"drive": {other: 20}}}}))
    argv = ["ratio-scan", "--out", str(tmp_path), "--config", str(cfg), "--grid", "12:36:3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and not (tmp_path / "ratio_scan.csv").exists()
    assert err == ("error: drive: give both gamma_raman_per_s and gamma_elastic_per_s, "
                   "or neither\n")
    code, _, err = run(capsys, *argv, "--scenario", "both")
    assert code == 0, err
    rows = np.loadtxt(tmp_path / "ratio_scan.csv", delimiter=",", skiprows=1)
    assert (rows[:, 2] == 15.0).all()


@pytest.mark.parametrize("text,argv,key", [
    ('{"thermal": {"n_bar": NaN}}', ["ratio-scan"], "config.thermal.n_bar"),
    ('{"drive": {"tau_s": NaN}}', ["simulate", "thermometry"], "config.drive.tau_s"),
    ('{"drive": {"gamma_per_s": Infinity}}', ["ratio-scan"], "config.drive.gamma_per_s"),
    ('{"beams": {"theta_odf_deg": 1e400}}', ["geom"], "config.beams.theta_odf_deg"),
    ('{"scenarios": {"hot": {"thermal": {"n_bar": -Infinity}}}}',
     ["ratio-scan", "--scenario", "hot"], "config.scenarios.hot.thermal.n_bar"),
], ids=["nbar-nan", "tau-nan", "gamma-inf", "theta-overflow", "scenario-nbar"])
def test_non_finite_config_value_names_key(capsys, tmp_path, text, argv, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out_flag = [] if argv[0] == "geom" else ["--out", str(tmp_path)]  # geom writes no file
    code, out, err = run(capsys, *argv, *out_flag, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key}: expected a finite number")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text,argv,message", [
    ("[1, 2]", ["geom"], "config: expected a table of sections"),
    ("5", ["geom"], "config: expected a table of sections"),
    ('{"scenarios": {"a": 5}}', ["geom"], "config.scenarios.a: expected a table of overrides"),
    ('{"scenarios": {"a": {"scenarios": {"b": {}}}}}', ["geom", "--scenario", "a"],
     "config.scenarios.a: unknown section 'scenarios'"),
], ids=["list", "number", "scenario-number", "nested-scenarios"])
def test_non_table_config_names_path(capsys, tmp_path, text, argv, message):
    # an AttributeError or TypeError traceback before
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_is_byte_reproducible(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "simulate", "thermometry", "--out", str(out),
                         "--seed", "11", "--shots", "200")
        assert code == 0
    assert (a / "thermometry.csv").read_bytes() == (b / "thermometry.csv").read_bytes()
    ma = strict_json((a / "thermometry.manifest.json").read_text())
    mb = strict_json((b / "thermometry.manifest.json").read_text())
    assert ma["config_digest"] == mb["config_digest"]
    assert ma["seed"] == 11


def test_one_config_has_one_digest(capsys, tmp_path):
    # the digest hashes the config alone; a scan's metadata is its own field
    docs = {}
    for label, argv in (("500", ["simulate", "thermometry", "--shots", "500"]),
                        ("200", ["simulate", "thermometry", "--shots", "200"]),
                        ("curves", ["curves", "--grid", "1:40:3"])):
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / label))
        assert code == 0
        name = "curves" if label == "curves" else "thermometry"
        docs[label] = strict_json((tmp_path / label / f"{name}.manifest.json").read_text())
    assert len({doc["config_digest"] for doc in docs.values()}) == 1
    assert (docs["500"]["scan_meta"]["shots"], docs["200"]["scan_meta"]["shots"]) == (500, 200)
    assert "scan_meta" not in docs["curves"]


def test_negative_grid_start_takes_equals_form(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "precession", "--grid=-180:180:5", "--out", str(tmp_path))
    assert code == 0
    data = np.loadtxt(tmp_path / "precession.csv", delimiter=",", skiprows=1)
    assert data.shape == (5, 3)
    assert data[0, 0] == pytest.approx(-math.pi)


def test_simulate_pathnoise_with_no_samples_is_one_line_error(capfd, tmp_path):
    code, out, err = run(capfd, "simulate", "pathnoise", "--sample-rate", "1e-9",
                         "--duration", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err == "error: duration 1 s at sample rate 1e-09 Hz gives no samples\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,where", [
    (["drift", "--duration", "1", "--dt", "1e-300"], "duration 1 s at dt 1e-300 s"),
    (["drift", "--duration", "1e300", "--dt", "1"], "duration 1e+300 s at dt 1 s"),
    (["pathnoise", "--sample-rate", "1e300"], "duration 6000 s at sample rate 1e+300 Hz"),
])
def test_oversized_series_is_one_line_error(capfd, tmp_path, argv, where):
    # the sample count is checked before any array of it is asked for
    code, out, err = run(capfd, "simulate", *argv, "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == f"error: {where} gives more samples than one array holds\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["geom", "--theta", "inf"],
    ["simulate", "pathnoise", "--duration", "inf"],
    ["simulate", "drift", "--dt", "nan"],
    ["simulate", "pathnoise", "--sample-rate", "inf"],
    ["simulate", "drift", "--rate", "inf"],
    ["simulate", "drift", "--jitter", "nan"],
], ids=lambda argv: argv[-2])
def test_non_finite_float_flag_names_flag(capfd, tmp_path, argv):
    code, out, err = run(capfd, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == "" and not (tmp_path / "out").exists()
    assert f"argument {argv[-2]}: expected a finite number" in err
    assert "Traceback" not in err


def test_simulate_then_fit_thermometry(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "thermometry", "--out", str(tmp_path),
                     "--seed", "3", "--shots", "500")
    assert code == 0
    code, out, _ = run(capsys, "fit", "thermometry",
                       "--data", str(tmp_path / "thermometry.csv"))
    assert code == 0
    payload = strict_json(out)
    assert payload["converged"] is True
    assert payload["params"]["omega_com_hz"] == pytest.approx(1.1e6, abs=50.0)
    assert payload["params"]["n_bar"] == pytest.approx(1.27, abs=0.5)


def test_simulate_then_fit_precession(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "precession", "--out", str(tmp_path),
                     "--seed", "5", "--shots", "500")
    assert code == 0
    code, out, _ = run(capsys, "fit", "precession",
                       "--data", str(tmp_path / "precession.csv"))
    assert code == 0
    assert strict_json(out)["converged"] is True


def test_fit_gamma_dataset(capsys, tmp_path):
    ds = simulate_gamma_decay(100.0, np.linspace(0.25e-3, 5e-3, 20), shots=500, seed=1)
    path = tmp_path / "gamma.csv"
    ds.to_csv(path)
    code, out, _ = run(capsys, "fit", "gamma", "--data", str(path))
    assert code == 0
    payload = strict_json(out)
    assert payload["params"]["gamma_per_s"] == pytest.approx(100.0, rel=0.1)


@pytest.mark.parametrize("gamma", [100.0, 2500.0])
def test_simulate_then_fit_gamma(capsys, tmp_path, gamma):
    # Gamma comes from the scenario's drive, and the default tau grid follows it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"gamma_per_s": gamma}}))
    code, _, err = run(capsys, "simulate", "gamma", "--config", str(cfg), "--seed", "4",
                       "--out", str(tmp_path))
    assert (code, err) == (0, "")
    meta = json.loads((tmp_path / "gamma.manifest.json").read_text())["scan_meta"]
    assert meta == {"kind": "gamma", "seed": 4, "shots": 500, "gamma": gamma}
    code, out, _ = run(capsys, "fit", "gamma", "--data", str(tmp_path / "gamma.csv"))
    assert code == 0
    fit = strict_json(out)
    assert abs(fit["params"]["gamma_per_s"] - gamma) <= 5 * fit["sigmas"]["gamma_per_s"]


def test_simulate_gamma_grid_is_tau_in_s(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "gamma", "--grid", "1e-3:4e-3:4", "--out", str(tmp_path))
    assert code == 0
    rows = np.loadtxt(tmp_path / "gamma.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [1e-3, 2e-3, 3e-3, 4e-3]


def test_fit_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "thermometry",
                       "--data", str(tmp_path / "absent.csv"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "",
    "abscissa,p_up,sigma\r\n",
    "abscissa,p_up,sigma\r\n1,0.5,0.1\r\n2,0.5\r\n",
    "abscissa,p_up,sigma\r\n1,0.5\r\n2,0.5\r\n",
    "abscissa,p_up,sigma\r\n0.1,0.5,0.01\r\n0.2,nan,0.01\r\n0.3,0.5,0.01\r\n",
    "t_s,value\r\n0.0,1.5e-8\r\n0.01,-2.5e-9\r\n0.02,4.0e-9\r\n",
    'abscissa,p_up,sigma\r\n"0.1",0.5,0.01\r\n',
    "abscissa,p_up,sigma\r\n# comment\r\n0.1,0.5,0.01\r\n",
    "abscissa,p_up,sigma\r\n1_0,0.5,0.01\r\n",
    "abscissa,p_up,sigma\r\n0.1,,0.01\r\n",
    "abscissa,p_up,sigma\r\n\r\n\r\n",
], ids=["empty", "header-only", "ragged", "narrower-than-header", "nan", "series",
        "quoted", "comment-line", "underscore", "empty-field", "blank-lines"])
def test_fit_malformed_csv_is_one_line_error(capsys, tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "precession", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "data.csv" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


CSV_TEXT = st.text("0123456789+-.,eEnaif_# \"\r\n", max_size=200)
# valid rows with extreme abscissae: a subnormal thermometry peak, and +-1e300
SUBNORMAL_ROWS = (b"5e-324,0.0,0.07\r\n5e-324,1.0,0.07\r\n1.0,0.2,0.07\r\n2.0,0.5,0.07\r\n"
                  b"3.0,0.1,0.07\r\n4.0,0.3,0.07\r\n")
HUGE_ROWS = b"1e300,0.0,0.07\r\n-1e300,1.0,0.07\r\n1.0,0.2,0.07\r\n2.0,0.5,0.07\r\n"
# thermometry steps to the bound omega_com = 0 (z0^2 infinite), or far out (the series overflowed)
TO_BOUND_ROWS = (b"5e-324,0.0,0.07\r\n5e-324,1.0,0.07\r\n1.1e6,0.2,0.07\r\n1.1e6,0.3,0.07\r\n"
                 b"1.1e6,0.4,0.07\r\n1.1e6,0.5,0.07\r\n")
FAR_OUT_ROWS = TO_BOUND_ROWS.replace(b"1.1e6", b"0.0")
FAR_OUT_SHUFFLED_ROWS = (b"5e-324,0.0,0.07\r\n5e-324,1.0,0.07\r\n0.0,0.2,0.07\r\n0.0,0.5,0.07\r\n"
                         b"0.0,0.1,0.07\r\n0.0,0.3,0.07\r\n")


# derandomized: the same 100 inputs on every run, so tier-1 stays deterministic
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from(["thermometry", "precession", "gamma"]),
       body=st.one_of(st.binary(max_size=200), CSV_TEXT.map(str.encode)))
@example(model="thermometry", body=SUBNORMAL_ROWS)
@example(model="gamma", body=HUGE_ROWS)
@example(model="precession", body=HUGE_ROWS)
@example(model="thermometry", body=TO_BOUND_ROWS)
@example(model="thermometry", body=FAR_OUT_ROWS)
def test_fit_random_csv_bytes_exits_cleanly(tmp_path, model, body):
    path = tmp_path / "data.csv"
    path.write_bytes(b"abscissa,p_up,sigma\r\n" + body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fit", model, "--data", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1
    else:
        strict_json(out.getvalue())


@pytest.mark.parametrize("body", [FAR_OUT_ROWS, FAR_OUT_SHUFFLED_ROWS],
                         ids=["far-out", "far-out-shuffled"])
def test_fit_thermometry_far_step_is_not_converged(capsys, tmp_path, body):
    # the step landed where P_up is flat in omega_com and n_bar (omega_com_hz ~2e54):
    # its cost equalled the start's, and the fit reported converged after one iteration
    path = tmp_path / "data.csv"
    path.write_bytes(b"abscissa,p_up,sigma\r\n" + body)
    code, out, err = run(capsys, "fit", "thermometry", "--data", str(path))
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert code == 2 and strict_json(out)["converged"] is False


@pytest.mark.parametrize("body", [TO_BOUND_ROWS, FAR_OUT_ROWS], ids=["to-bound", "far-out"])
def test_fit_thermometry_steps_print_no_warning(capfd, tmp_path, body):
    # numpy's divide, invalid-value and overflow warnings went to stderr on both
    path = tmp_path / "data.csv"
    path.write_bytes(b"abscissa,p_up,sigma\r\n" + body)
    code, out, err = run(capfd, "fit", "thermometry", "--data", str(path))
    assert code in (0, 1, 2)
    assert "Warning" not in err
    if code == 1:
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert err == ""
        strict_json(out)


@pytest.mark.parametrize("abscissa", [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
def test_fit_precession_single_abscissa_is_one_line_error(capfd, tmp_path, abscissa):
    # capfd, not capsys: LAPACK writes its DLASCL lines to file descriptor 2
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n"
                    + "".join(f"{x},{p},0.01\n" for x, p in zip(abscissa, (0.1, 0.2, 0.15))))
    code, out, err = run(capfd, "fit", "precession", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: need at least 2 distinct theta1 values\n"


@pytest.mark.parametrize("abscissa", [[0.001, 0.001, 0.001], [0.0, 0.0, 0.0]])
def test_fit_gamma_single_abscissa_is_one_line_error(capfd, tmp_path, abscissa):
    # a RankWarning (one nonzero tau) or DLASCL lines (all zero) came before
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n"
                    + "".join(f"{x},{p},0.01\n" for x, p in zip(abscissa, (0.1, 0.2, 0.15))))
    code, out, err = run(capfd, "fit", "gamma", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: need at least 2 distinct tau values\n"


def test_fit_thermometry_of_a_precession_csv_is_unidentifiable(capfd, tmp_path):
    # on a precession CSV the start peak - pi/tau is a negative omega_com; it is dropped
    code, _, _ = run(capfd, "simulate", "precession", "--out", str(tmp_path), "--seed", "1")
    assert code == 0
    code, out, err = run(capfd, "fit", "thermometry", "--data", str(tmp_path / "precession.csv"))
    assert code == 2
    assert err == ""
    payload = strict_json(out)
    assert payload["flags"] == ["unidentifiable"]
    assert payload["sigmas"] == {"omega_com_hz": None, "n_bar": None}


def test_fit_thermometry_negative_abscissa_is_one_line_error(capfd, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n"
                    + "".join(f"{-1.1e6 + 500 * i},0.{i + 1},0.01\n" for i in range(6)))
    code, out, err = run(capfd, "fit", "thermometry", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: no omega_com > 0") and "abscissa (mu/2pi in Hz)" in err
    assert len(err.splitlines()) == 1


def test_fit_thermometry_subnormal_abscissa_is_no_start(capfd, tmp_path):
    # 2 M omega_com underflowed to 0 at the subnormal peak: a ZeroDivisionError traceback
    path = tmp_path / "data.csv"
    path.write_bytes(b"abscissa,p_up,sigma\r\n" + SUBNORMAL_ROWS)
    code, out, err = run(capfd, "fit", "thermometry", "--data", str(path))
    assert code in (0, 2)
    assert err == ""
    strict_json(out)


def test_fit_thermometry_no_finite_z0_start_is_one_line_error(capfd, tmp_path):
    # at tau = 1e300 s even the start peak + pi/tau underflows 2 M omega_com to 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"tau_s": 1e300}}))
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n" + "".join(f"5e-324,0.{i + 1},0.07\n" for i in range(6)))
    code, out, err = run(capfd, "fit", "thermometry", "--config", str(cfg), "--data", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: no omega_com > 0 with a finite z0^2")
    assert "abscissa (mu/2pi in Hz) spans [4.94066e-324, 4.94066e-324]" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("model,name", [("gamma", "tau in s"), ("precession", "theta1 in rad")])
def test_fit_huge_abscissa_is_one_line_error(capfd, tmp_path, model, name):
    # capfd: numpy's overflow and RankWarning lines from polyfit and the
    # Gauss-Newton normal equations came before, on file descriptor 2
    path = tmp_path / "data.csv"
    path.write_bytes(b"abscissa,p_up,sigma\r\n" + HUGE_ROWS)
    code, out, err = run(capfd, "fit", model, "--data", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error: the abscissa ({name}) spans [-1e+300, 1e+300]: "
                   "too large to fit, its sum of squares overflows\n")


def test_fit_thermometry_largest_float_abscissa_is_one_line_error(capfd, tmp_path):
    # mu = 2 pi times this abscissa overflows: checked before it is formed
    path = tmp_path / "data.csv"
    rows = [1.7976931348623157e308, 1.0, 2.0, 3.0, 4.0, 5.0]
    path.write_text("abscissa,p_up,sigma\n" + "".join(f"{v!r},0.{i + 1},0.07\n"
                                                     for i, v in enumerate(rows)))
    code, out, err = run(capfd, "fit", "thermometry", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err == ("error: the abscissa (mu/2pi in Hz) spans [1, 1.79769e+308]: "
                   "too large to fit, its sum of squares overflows\n")


def test_fit_precession_repeated_small_abscissa_uses_all_points(capfd, tmp_path):
    # the theta1 <= pi/2 points give no slope; the start falls back to all points
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n0,0.1,0.01\n0,0.2,0.01\n3,0.15,0.01\n"
                    "4,0.15,0.01\n")
    code, out, err = run(capfd, "fit", "precession", "--data", str(path))
    assert code == 0
    assert err == ""
    assert strict_json(out)["converged"] is True


def test_malformed_config_names_key(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"drive": {"tau_ms": 0.5}}))
    code, _, err = run(capsys, "geom", "--theta", "28", "--config", str(cfg))
    assert code == 1
    assert "tau_ms" in err


def test_scenario_selection(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scenarios": {"doppler": {"thermal": {"n_bar": 10.7}}}
    }))
    code, out, _ = run(capsys, "geom", "--config", str(cfg), "--scenario", "doppler")
    assert code == 0
    code, _, err = run(capsys, "geom", "--config", str(cfg), "--scenario", "typo")
    assert code == 1
    assert "doppler" in err


def test_optimize_angle_output(capsys):
    code, out, _ = run(capsys, "optimize-angle", "--window", "12:36")
    assert code == 0
    record = strict_json(out)
    assert record["theta_deg"] == pytest.approx(36.0, abs=1e-3)
    assert record["ratio_N_s"] > 0
    assert "config_digest" in record["provenance"]


def test_optimize_angle_stdout_is_deterministic():
    # the provenance it prints carries no timestamp, which made each run's bytes differ
    env = {**os.environ, "PYTHONPATH": str(Path(odfkit.__file__).parents[1])}
    outs = [subprocess.run([sys.executable, "-m", "odfkit.cli", "optimize-angle", "--window",
                            "14:30"], capture_output=True, check=True, timeout=120,
                           env=env).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    assert sorted(strict_json(outs[0].decode())["provenance"]) == [
        "command", "config_digest", "seed", "tool_version"]


def test_optimize_angle_searches_the_mount_window(capsys, tmp_path):
    # without --window the window is the mount's: a narrower mount ran into a 12:36
    # default before, and a wider one was searched only up to 36 deg
    cfg = tmp_path / "config.json"
    for doc, theta in (({"mount": {"theta_min_deg": 15}}, 36.0),
                       ({"mount": {"theta_max_deg": 50, "linear_travel_m": 0.03},
                         "thermal": {"n_bar": 0.1}}, 50.0)):
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "optimize-angle", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert strict_json(out)["theta_deg"] == pytest.approx(theta, abs=1e-12)


def test_optimize_angle_rejects_bad_window(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"gamma_per_s": 0}}))
    for argv, message in (
            (["--window", "20:20"], "constraint window is empty"),
            (["--window", "10:36"],
             "window [10.00, 36.00] deg outside the mechanical limits [12.0, 36.0] deg"),
            (["--window", ""], "bad --window '', expected lo:hi"),  # not the mount's window
            (["--config", str(cfg)], "gamma must be > 0")):
        code, out, err = run(capsys, "optimize-angle", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("window", ["20", "12:20:36", "a:36",
                                    "nan:20", "14:nan", "inf:20", "14:inf"])
def test_optimize_angle_unparsable_window_names_flag(capsys, window):
    # a non-finite bound gave an empty window or one outside the mount before
    code, out, err = run(capsys, "optimize-angle", "--window", window)
    assert (code, out, err) == (1, "", f"error: bad --window '{window}', expected lo:hi\n")


def test_reproduce_fig1de(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig1de", "--out", str(tmp_path),
                     "--grid", "5:35:7")
    assert code == 0
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,n_bar,F0_N,Jbar_rad_s"
    assert len(lines) == 1 + 7 * 3  # three n_bar families


def test_reproduce_fig3c(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig3c", "--out", str(tmp_path),
                     "--seed", "1", "--shots", "500")
    assert code == 0
    fits = strict_json((tmp_path / "fig3c_fits.json").read_text())
    assert set(fits) == {"doppler", "eit"}
    assert (tmp_path / "fig3c_doppler.csv").exists()
    assert (tmp_path / "fig3c_eit.csv").exists()
    assert fits["eit"]["params"]["n_bar"] == pytest.approx(1.27, abs=0.5)


def _assert_fit_pinned(got, pinned):
    """iterations, converged and flags exactly, floats to rel=1e-12.

    Not bytes: a fit's chi2_reduced can move by 1 ulp with numpy's SIMD level.
    """
    if isinstance(pinned, dict):
        assert list(got) == list(pinned)
        for key in pinned:
            _assert_fit_pinned(got[key], pinned[key])
    elif isinstance(pinned, float):
        assert got == pytest.approx(pinned, rel=1e-12)
    else:
        assert got == pinned and type(got) is type(pinned)


def _fit_doc(params, sigmas, chi2_reduced, converged, iterations, flags=()):
    return {"params": params, "sigmas": sigmas, "chi2_reduced": chi2_reduced,
            "converged": converged, "iterations": iterations, "flags": list(flags)}


@pytest.mark.parametrize("model,seed,pinned", [
    ("thermometry", "0", _fit_doc(
        {"omega_com_hz": 1100004.940675539, "n_bar": 1.3502570502247222},
        {"omega_com_hz": 10.152563904243996, "n_bar": 0.1449179284836184},
        0.740800242129655, True, 5)),
    ("precession", "0", _fit_doc(
        {"j_bar": 53.19832081879289}, {"j_bar": 11.525192685888753},
        1.0589688822471506, True, 3)),
    ("gamma", "0", _fit_doc(
        {"gamma_per_s": 95.79017980129129}, {"gamma_per_s": 3.1889990656934915},
        1.4056836904653849, True, 6)),
])
def test_fit_output_is_pinned(capsys, tmp_path, model, seed, pinned):
    assert run(capsys, "simulate", model, "--seed", seed, "--out", str(tmp_path))[0] == 0
    code, out, err = run(capsys, "fit", model, "--data", str(tmp_path / f"{model}.csv"))
    assert (code, err) == (0, "")
    _assert_fit_pinned(strict_json(out), pinned)


def test_fig3c_unconverged_fits_are_pinned(capsys, tmp_path):
    # the Doppler fit at this seed runs all 200 iterations and ends unconverged
    assert run(capsys, "reproduce", "fig3c", "--seed", "393736254", "--out", str(tmp_path))[0] == 0
    _assert_fit_pinned(strict_json((tmp_path / "fig3c_fits.json").read_text()), {
        "doppler": _fit_doc(
            {"omega_com_hz": 1100005.6288799501, "n_bar": 11.035446270907284},
            {"omega_com_hz": 7.2994147626426304, "n_bar": 1.5489776550822405},
            1.0991812132381502, False, 200),
        "eit": _fit_doc(
            {"omega_com_hz": 1100011.3071074064, "n_bar": 1.7386560360124805},
            {"omega_com_hz": 9.475945523729235, "n_bar": 0.17271676208572578},
            0.8724152411433552, True, 5),
    })


def test_fig3c_unconverged_fit_is_written_with_a_warning(capsys, tmp_path):
    code, out, err = run(capsys, "reproduce", "fig3c", "--seed", "393736254",
                         "--out", str(tmp_path))
    assert code == 0
    assert err == "warning: fig3c doppler: unconverged\n"
    assert out == "".join(f"wrote {tmp_path / name}\n" for name in
                          ("fig3c_doppler.csv", "fig3c_eit.csv", "fig3c_fits.json"))
    assert strict_json((tmp_path / "fig3c_fits.json").read_text())["doppler"]["converged"] is False


def test_reproduce_fig4c(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig4c", "--out", str(tmp_path),
                     "--seed", "2", "--shots", "500")
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "fig4c.csv").read_text().splitlines()[1:]]
    eit = {float(r[1]): float(r[4]) for r in rows if r[0] == "eit"}
    assert eit[28.0] / eit[14.0] == pytest.approx(1.9, abs=0.3)


def test_reproduce_fig4c_at_few_shots_exits_0(capsys, tmp_path):
    # each row is one F0^2 >= 0 fit: a noisy scan no longer fits a jbar of the wrong sign
    for seed in range(10):
        code, _, err = run(capsys, "reproduce", "fig4c", "--shots", "20", "--seed", str(seed),
                           "--out", str(tmp_path))
        assert code == 0, (seed, err)


def test_fig4c_flagged_row_is_written_with_a_warning(capsys, tmp_path):
    code, _, err = run(capsys, "reproduce", "fig4c", "--shots", "1", "--seed", "0",
                       "--out", str(tmp_path))
    assert code == 0
    assert err == ("warning: fig4c doppler 17 deg: bound_active\n"
                   "warning: fig4c doppler 24 deg: bound_active\n")
    rows = [r.split(",") for r in (tmp_path / "fig4c.csv").read_text().splitlines()[1:]]
    assert len(rows) == 10
    f0 = {(r[0], float(r[1])): float(r[2]) for r in rows}
    assert f0["doppler", 17.0] == f0["doppler", 24.0] == 0.0
    assert all(v > 0 for key, v in f0.items() if key not in {("doppler", 17.0), ("doppler", 24.0)})


def test_fig4c_probe_drive_is_set_by_the_size_of_delta_ac(capsys, tmp_path):
    # F0 depends on |delta_ac| alone: a negative delta_ac was floored to 2.5 kHz before
    digests = []
    for delta_ac_hz in (-5000.0, 5000.0):
        out = tmp_path / str(delta_ac_hz)
        out.mkdir()
        (out / "config.json").write_text(json.dumps({"drive": {"delta_ac_hz": delta_ac_hz}}))
        argv = ["reproduce", "fig4c", "--shots", "50", "--out", str(out),
                "--config", str(out / "config.json")]
        assert run(capsys, *argv)[0] == 0
        digests.append(hashlib.sha256((out / "fig4c.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_reproduce_fig5(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig5", "--out", str(tmp_path), "--seed", "0")
    assert code == 0
    for name in ("fig5a_drift", "fig5b_pathnoise"):
        assert (tmp_path / f"{name}.csv").read_bytes().startswith(b"t_s,value\r\n")
    drift = np.loadtxt(tmp_path / "fig5a_drift.csv", delimiter=",", skiprows=1)
    assert np.all(np.abs(drift[:, 1]) <= 6e-3)
    noise = np.loadtxt(tmp_path / "fig5b_pathnoise.csv", delimiter=",", skiprows=1)
    rms = math.sqrt(float(np.mean(noise[:, 1] ** 2)))
    assert rms == pytest.approx(12e-9, rel=0.05)


@pytest.mark.parametrize("seed", ["0", "7", "-1"])
def test_reproduce_fig5_is_two_simulate_series(capsys, tmp_path, seed):
    # fig5 has no size flag of its own: its two series are those of the simulate
    # drift and pathnoise leaves, which the run-command fuzz reaches, at fig5's sizes
    fig5 = tmp_path / "fig5"
    assert run(capsys, "reproduce", "fig5", "--seed", seed, "--out", str(fig5))[0] == 0
    for name, model, flags in (
            ("fig5a_drift", "drift",
             ["--duration", "6000", "--dt", "10", "--rate", "0.002", "--jitter", "5e-4"]),
            ("fig5b_pathnoise", "pathnoise", ["--duration", "200", "--sample-rate", "100"])):
        out = tmp_path / model
        assert run(capsys, "simulate", model, *flags, "--seed", seed, "--out", str(out))[0] == 0
        assert (out / f"{model}.csv").read_bytes() == (fig5 / f"{name}.csv").read_bytes(), name


def test_reproduce_csv_bytes_are_pinned(capsys, tmp_path):
    # fig4c has the str scenario column; fig5b's 20k rows span many writer blocks
    pinned = {
        ("fig4c", "1", "fig4c"):
            "bef4987fffd5807fd2201d11bc013035d52258a240357eec98a2f24be01888a1",
        ("fig5", "7", "fig5a_drift"):
            "5c7817b1387700f6573355d7abe623e60faa7166d8b5814917291f8c13d5324f",
        ("fig5", "7", "fig5b_pathnoise"):
            "a4ff99e70cbde881855e50e0fb9be201b186d3fda84fba9d2ee77a98853d684f",
    }
    for figure, seed, name in pinned:
        out = tmp_path / figure
        if not out.exists():
            assert run(capsys, "reproduce", figure, "--seed", seed, "--out", str(out))[0] == 0
        digest = hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        assert digest == pinned[figure, seed, name], name


def test_largest_csv_bytes_are_pinned(capsys, tmp_path):
    # the default path-noise series: 600,000 rows, ~290 writer blocks
    assert run(capsys, "simulate", "pathnoise", "--seed", "3", "--out", str(tmp_path))[0] == 0
    data = (tmp_path / "pathnoise.csv").read_bytes()
    assert data.count(b"\r\n") == 600_001
    assert (hashlib.sha256(data).hexdigest()
            == "b4efe08076847e042d7ed25b938bbb1dfe8596510ae81fb7335158ee542363ab")


@pytest.mark.parametrize("argv,name,rows,digest", [
    # one sample: no slow band, only the fast draw rescaled to the target RMS
    (["pathnoise", "--duration", "0.01", "--seed", "5"], "pathnoise", 1,
     "220250849f28bdd1301be76d20d73da721ab3ea947c1514af393b3067a8a764d"),
    # the jittered drift of the long-series workload: its jitter spans several draw blocks
    (["drift", "--duration", "360000", "--dt", "1", "--jitter", "5e-4", "--rate", "0.002",
      "--seed", "7"], "drift", 360_001,
     "9536c455319a6549ab928e0796b808e769c9d6814aeb8130b803b927e0a7533d"),
], ids=["pathnoise-one-sample", "drift-long"])
def test_series_csv_bytes_are_pinned(capsys, tmp_path, argv, name, rows, digest):
    assert run(capsys, "simulate", *argv, "--out", str(tmp_path))[0] == 0
    data = (tmp_path / f"{name}.csv").read_bytes()
    assert data.count(b"\r\n") == rows + 1
    assert hashlib.sha256(data).hexdigest() == digest


def test_bulk_scan_csv_bytes_are_pinned(capsys, tmp_path):
    # 1e5 points, each drawn from Philox keyed by the seed at counter [0, 0, 0, i]
    argv = ["simulate", "precession", "--seed", "5", "--grid", "0:360:100000", "--out", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    data = (tmp_path / "precession.csv").read_bytes()
    assert data.count(b"\r\n") == 100_001
    assert (hashlib.sha256(data).hexdigest()
            == "5a96254e4e6be7327f9bc6fd22eee077717ee2a88098b58692dc531b5401b3bf")


@pytest.mark.parametrize("argv,name,column", [
    (["ratio-scan", "--grid", "14:28:3"], "ratio_scan", 2),
    (["reproduce", "fig4c", "--shots", "50"], "fig4c", 3),
])
def test_int_config_numbers_are_written_as_floats(capsys, tmp_path, argv, name, column):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"drive": {"gamma_per_s": 100}}))
    code, _, _ = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
    assert rows and all(r.split(",")[column] == "1.00000000000000000e+02" for r in rows)


# the flags each command leaf takes besides --config and --scenario
LEAF_FLAGS = {
    "geom": ["--theta", "--actuators"],
    "curves": ["--out", "--grid", "--nbar"],
    "ratio-scan": ["--out", "--grid"],
    "simulate thermometry": ["--out", "--seed", "--shots", "--grid"],
    "simulate precession": ["--out", "--seed", "--shots", "--grid"],
    "simulate gamma": ["--out", "--seed", "--shots", "--grid"],
    "simulate drift": ["--out", "--seed", "--duration", "--dt", "--rate", "--jitter"],
    "simulate pathnoise": ["--out", "--seed", "--duration", "--sample-rate"],
    "fit thermometry": ["--data"],
    "fit precession": ["--data"],
    "fit gamma": ["--data"],
    "optimize-angle": ["--window"],
    "reproduce fig1de": ["--out", "--grid"],
    "reproduce fig3c": ["--out", "--seed", "--shots"],
    "reproduce fig4c": ["--out", "--seed", "--shots"],
    "reproduce fig5": ["--out", "--seed"],
}
ALL_FLAGS = sorted({flag for flags in LEAF_FLAGS.values() for flag in flags})


@pytest.mark.parametrize("cmd", ["geom", "curves", "ratio-scan", "simulate",
                                 "fit", "optimize-angle", "reproduce",
                                 *(leaf for leaf in LEAF_FLAGS if " " in leaf)])
def test_every_subcommand_has_help(capsys, cmd):
    code = main([*cmd.split(), "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.lower().startswith(f"usage: odfkit {cmd}")


@pytest.mark.parametrize("leaf", LEAF_FLAGS)
def test_leaf_takes_exactly_its_flags(capsys, tmp_path, monkeypatch, leaf):
    # a flag the leaf does not read is a usage error, not accepted and ignored
    monkeypatch.chdir(tmp_path)  # a leaf that wrongly ran would write to --out "."
    fit_data = ["--data", str(tmp_path / "absent.csv")] if leaf.startswith("fit ") else []
    argv = [*leaf.split(), *fit_data]
    parser = build_parser()
    for flag in ["--config", "--scenario", *ALL_FLAGS]:
        if flag in ["--config", "--scenario", *LEAF_FLAGS[leaf]]:
            args = parser.parse_args([*argv, flag, "1"])
            assert getattr(args, flag[2:].replace("-", "_")) in ("1", 1), flag
        else:
            code, out, err = run(capsys, *argv, flag, "1")
            assert (code, out) == (1, ""), flag
            assert f"unrecognized arguments: {flag} 1" in err, flag


def test_flag_before_model_name_is_usage_error(capsys, tmp_path):
    code, out, _ = run(capsys, "simulate", "--seed", "3", "thermometry", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert not (tmp_path / "thermometry.csv").exists()


@pytest.mark.parametrize("argv, name, order", [
    (["simulate", "--seed", "3", "thermometry"], "--seed", "odfkit simulate MODEL [flags]"),
    (["fit", "--data", "x.csv", "precession"], "--data", "odfkit fit MODEL [flags]"),
    (["reproduce", "--seed=3", "fig3c"], "--seed", "odfkit reproduce FIGURE [flags]"),
], ids=["simulate", "fit", "reproduce"])
def test_flag_before_model_name_names_flag_and_order(capsys, tmp_path, monkeypatch, argv, name,
                                                      order):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {name} ") and err.endswith(f": {order}\n")
    assert len(err.splitlines()) == 1 and not list(tmp_path.iterdir())


def _leaves(parser, words=()):
    """(argv words, leaf parser) of every command leaf under parser."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield list(words), parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, (*words, name))


@pytest.mark.parametrize("leaf", LEAF_FLAGS)
def test_parser_for_an_argv_reads_it_as_the_full_parser(leaf):
    # build_parser(argv) leaves out only what that argv never reaches
    argv = [*leaf.split(), *(["--data", "x.csv"] if leaf.startswith("fit ") else [])]
    full, part = build_parser(), build_parser(argv)
    assert vars(part.parse_args(argv)) == vars(full.parse_args(argv))
    assert part.format_help() == full.format_help()
    full_leaf, part_leaf = (next(q for words, q in _leaves(p) if words == leaf.split())
                            for p in (full, part))
    assert part_leaf.format_help() == full_leaf.format_help()


def test_abbreviated_flags_are_rejected(capsys, tmp_path, monkeypatch):
    # each leaf's flags are only spelled in full: a unique prefix is unrecognized
    monkeypatch.chdir(tmp_path)
    leaves = list(_leaves(build_parser()))
    assert sorted(" ".join(words) for words, _ in leaves) == sorted(LEAF_FLAGS)
    for words, leaf in leaves:
        flags = [s for s in leaf._option_string_actions if s.startswith("--") and s != "--help"]
        flag = max(flags)  # e.g. --window, --theta, --shots
        prefix = flag[:-1]
        assert [f for f in flags if f.startswith(prefix)] == [flag]
        fit_data = ["--data", str(tmp_path / "absent.csv")] if words[0] == "fit" else []
        code, out, err = run(capsys, *words, *fit_data, prefix, "1")
        assert (code, out) == (1, ""), words
        assert f"unrecognized arguments: {prefix} 1" in err, words
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "precession", "--grid", "0:330:5"],
    ["reproduce", "fig3c"],
    ["reproduce", "fig4c"],
], ids=lambda argv: " ".join(argv[:2]))
def test_shots_beyond_int64_names_flag(capfd, tmp_path, argv):
    code, out, err = run(capfd, *argv, "--shots", str(10 ** 20), "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --shots:" in errors[0]
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("shots", [1, 2 ** 53 + 1, 2 ** 63 - 1])
def test_shots_up_to_int64_are_drawn_by_stream_v1(capsys, tmp_path, shots):
    # the largest shot count numpy's binomial takes still draws stream v1
    code, _, _ = run(capsys, "simulate", "precession", "--shots", str(shots), "--seed", "9",
                     "--grid", "0:330:12", "--out", str(tmp_path))
    assert code == 0
    scn = load_config(None)
    j_bar = force_magnitude(scn.beams, scn.drive, scn.trap, scn.thermal).j_bar
    theta = np.radians(np.linspace(0.0, 330.0, 12))
    p_true = precession_lineshape(j_bar, scn.drive.gamma, scn.drive.tau, theta)
    data = np.loadtxt(tmp_path / "precession.csv", delimiter=",", skiprows=1)
    expect = oracles.per_point_binomial(p_true, shots, 9) / shots
    assert data[:, 1].tobytes() == expect.tobytes()


@pytest.mark.parametrize("argv", [["geom", "--theta", "28"], ["optimize-angle"],
                                  ["fit", "precession", "--data"]], ids=lambda argv: argv[0])
def test_closed_stdout_exits_1_without_traceback(tmp_path, argv):
    # the reader is gone before the command writes: exit 1, nothing on stderr
    if argv[-1] == "--data":
        assert main(["simulate", "precession", "--out", str(tmp_path)]) == 0
        argv = [*argv, str(tmp_path / "precession.csv")]
    env = {**os.environ, "PYTHONPATH": str(Path(odfkit.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "odfkit.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_geom_theta_and_actuators_exclude_each_other(capsys, tmp_path):
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"rotary_angle_deg": 3.0}))
    code, out, err = run(capsys, "geom", "--theta", "28", "--actuators", str(pose))
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


def test_out_of_memory_request_is_one_line_error(capfd, tmp_path):
    # 1e17 samples: 711 PiB, more than a 57-bit address space maps, so nothing is touched
    code, out, err = run(capfd, "simulate", "pathnoise", "--duration", "1e15",
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _perfbench(name):
    """perfbench/<name>.py of this checkout, imported as module perfbench_<name>."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # perfbench's own dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path):
    # every argv the benchmark runs, and its known-defect inputs, parses to a command
    workloads = _perfbench("workloads")
    commands = [cmd for name in workloads.WORKLOADS
                for cmd in workloads.build(name, 1, tmp_path / name, scale=0.01)]
    commands += [cmd for name in workloads.KNOWN_DEFECTS
                 for cmd in workloads.known_defect(name, tmp_path / name)]
    parser = build_parser()
    for cmd in commands:
        args = parser.parse_args(cmd.argv)
        assert args.func.__name__.startswith("cmd_"), cmd.argv
    assert commands


TRACING = _perfbench("tracing")
# the CSV format moved from simulate to csvio, and tracing.py still names simulate.ScanDataset
_CSV_MOVED = pytest.mark.xfail(strict=True, reason="CSV_WRITE and CSV_READ name a class that "
                               "moved to csvio: see the FOUND line on them in CHANGES.md")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_CSV_MOVED) if name in (TRACING.CSV_WRITE, TRACING.CSV_READ) else name
    for name in sorted({*TRACING.SAMPLERS, *TRACING.SERIES, *TRACING.FITS, *TRACING._AFTER,
                        "interactions.force_magnitude"})])
def test_benchmark_traced_names_are_wrapped(name):
    # tracing.install wraps what each layer module in LAYERS defines; a name it misses
    # reads as a metric of 0, without an error
    layer, *path = name.split(".")
    assert layer in TRACING.LAYERS
    obj = importlib.import_module(f"odfkit.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
        assert obj.__module__ == f"odfkit.{layer}", (attr, obj.__module__)


def test_benchmark_reads_the_coupling_through_cli(tmp_path):
    # perfbench's checks take the coupling from cli.load_config and cli.force_magnitude
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"thermal": {"n_bar": 10.7}}))
    scn = load_config(str(cfg))
    j_bar = force_magnitude(scn.beams, scn.drive, scn.trap, scn.thermal).j_bar
    assert _perfbench("workloads")._simulated_j_bar(cfg) == j_bar > 0


def _readme_block(lang, marker):
    """The text of README's first ```lang block that contains marker."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split(f"```{lang}\n")[1:]
    return next(b.split("```")[0] for b in blocks if marker in b)


def test_readme_commands_exit_0(capsys, tmp_path, monkeypatch):
    # each command of README's command-line example, in order, as a user types it
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for line in _readme_block("sh", "odfkit geom").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("odfkit ")]
    assert len(commands) == 8
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("scenario", ["doppler", "eit"])
def test_readme_config_loads(tmp_path, scenario):
    doc = json.loads(_readme_block("json", "scenarios"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    scn = load_config(str(cfg), scenario)
    assert scn.thermal.n_bar == doc["scenarios"][scenario]["thermal"]["n_bar"]
    assert scn.drive.gamma == doc["drive"]["gamma_per_s"]


def test_cli_import_loads_no_scipy():
    # odfkit.cli loads no scipy and no numpy (main loads numpy for the array commands)
    for module, prefix in (("odfkit.cli", "scipy"), ("odfkit.cli", "numpy"),
                           ("odfkit", "numpy")):
        probe = (f"import sys, {module}; "
                 f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ,
                                               "PYTHONPATH": str(Path(odfkit.__file__).parents[1])})
        assert done.stdout.strip() == "[]", module


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child(argv, **env):
    """Run a Python child on this checkout, none of the BLAS thread variables set but env's."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True,
                          timeout=120, env={**base, **env,
                                            "PYTHONPATH": str(Path(odfkit.__file__).parents[1])})


@pytest.mark.parametrize("argv", [["-c", "import odfkit.cli"],
                                  ["-m", "odfkit.cli", "geom", "--theta", "28"]],
                         ids=["import", "geom"])
def test_start_up_loads_no_dataclasses_or_inspect(argv):
    # odfkit's records generate no code, and argparse, json and pathlib load neither module
    stderr = _child(["-X", "importtime", *argv]).stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
              if line.startswith("import time:")}
    assert "odfkit.configio" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# runs `odfkit <argv>`, then prints its exit code, the odfkit modules it loaded and
# whether it loaded numpy and numpy.ma
MODULES_PROBE = """
import contextlib, io, json, sys
from odfkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("odfkit.")),
                  "numpy" in sys.modules, "numpy.ma" in sys.modules]))
"""
CLI_BASE = ["configio", "constants", "core", "geometry", "interactions"]
WRITES = ["csvio", "manifest"]
SERIES = ["csvio", "manifest", "simulate"]
DRAWS = ["_stream_v1", "csvio", "manifest", "simulate"]
FITS = ["csvio", "fitting"]


@pytest.mark.parametrize("argv,loads", [
    ("geom", []),
    ("optimize-angle", ["manifest"]),
    ("curves --grid 1:40:3", WRITES),
    ("ratio-scan --grid 12:36:3", WRITES),
    ("reproduce fig1de --grid 1:40:3", WRITES),
    ("simulate thermometry --grid 1.099e6:1.101e6:3", DRAWS),
    ("simulate precession --grid 0:90:3", DRAWS),
    ("simulate gamma --grid 1e-3:4e-3:3", DRAWS),
    ("simulate drift --duration 100", SERIES),
    ("simulate pathnoise --duration 1", SERIES),
    ("reproduce fig5", SERIES),
    ("fit thermometry", FITS),
    ("fit precession", FITS),
    ("fit gamma", FITS),
    ("reproduce fig3c --shots 50", ["_stream_v1", "csvio", "fitting", "manifest", "simulate"]),
    ("reproduce fig4c --shots 50", ["_stream_v1", "csvio", "fitting", "manifest", "simulate"]),
], ids=lambda v: v if isinstance(v, str) else "")
def test_each_command_loads_only_the_modules_it_calls(tmp_path, argv, loads):
    argv = argv.split()
    if argv[0] == "fit":
        assert main(["simulate", argv[1], "--out", str(tmp_path)]) == 0
        argv = [*argv, "--data", str(tmp_path / f"{argv[1]}.csv")]
    elif argv[0] not in ("geom", "optimize-angle"):
        argv = [*argv, "--out", str(tmp_path)]
    code, modules, numpy_loaded, ma_loaded = json.loads(
        _child(["-c", MODULES_PROBE, *argv]).stdout)
    assert code == 0
    assert modules == sorted(f"odfkit.{m}" for m in ["cli", *CLI_BASE, *loads])
    # the design commands compute in math; every other command takes arrays
    assert numpy_loaded is (argv[0] not in ("geom", "optimize-angle"))
    assert not ma_loaded  # np.unique imports numpy.ma, at ~15 ms and 1.4 MB a call


@pytest.mark.parametrize("env,left", [({}, None), ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
                                      ({"OMP_NUM_THREADS": "2"}, None)])
def test_cli_import_leaves_blas_thread_setting_as_found(env, left, tmp_path):
    # the one-thread default is set only while main loads numpy for an array command:
    # children inherit none of it
    probe = ("import contextlib, io, os, sys; from odfkit.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['ratio-scan', '--grid', '12:36:3', '--out', sys.argv[1]])\n"
             "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
    assert _child(["-c", probe, str(tmp_path)], **env).stdout.split() == ["0", str(left), "True"]


def test_fit_stdout_on_large_scan_is_that_of_one_blas_thread(tmp_path):
    # 2e4 points: at two OpenBLAS threads the reductions split and the last bits move
    assert main(["simulate", "precession", "--grid", "0:360:20000", "--out", str(tmp_path)]) == 0
    argv = ["-m", "odfkit.cli", "fit", "precession", "--data", str(tmp_path / "precession.csv")]
    assert _child(argv).stdout == _child(argv, OPENBLAS_NUM_THREADS="1").stdout


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_in_process_leaves_the_collector_as_found(capsys, tmp_path, enabled):
    # only the process entry, main() without argv, freezes the heap before it exits
    assert main(["simulate", "precession", "--seed", "1", "--out", str(tmp_path)]) == 0
    cases = [(["ratio-scan", "--grid", "12:36:3", "--out", str(tmp_path)], 0),
             (["geom", "--theta", "28"], 0),
             (["ratio-scan", "--grid", "1:2:0", "--out", str(tmp_path)], 1),
             (["fit", "thermometry", "--data", str(tmp_path / "precession.csv")], 2)]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        for argv, expect in cases:
            assert run(capsys, *argv)[0] == expect, argv
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    finally:
        (gc.enable if was_enabled else gc.disable)()


# a library process that has not loaded numpy: main(argv) loads it, and leaves the
# collector, here switched off, as it was
COLLECTOR_PROBE = """
import contextlib, gc, io, json, sys
from odfkit.cli import main
gc.disable()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["ratio-scan", "--grid", "12:36:3", "--out", sys.argv[1]])
print(json.dumps([code, "numpy" in sys.modules, gc.isenabled(), gc.get_freeze_count()]))
"""


def test_main_loading_numpy_leaves_the_collector_as_found(tmp_path):
    assert json.loads(_child(["-c", COLLECTOR_PROBE, str(tmp_path)]).stdout) == [0, True, False, 0]


def test_process_entry_runs_with_the_collector_off_and_freezes(capsys, monkeypatch):
    # main() without argv: the command runs with the collector off, and the heap is frozen
    # when main returns
    enabled_in_run = []
    run_command = cli._run
    monkeypatch.setattr(cli, "_run", lambda argv: enabled_in_run.append(gc.isenabled())
                        or run_command(argv))
    monkeypatch.setattr(sys, "argv", ["odfkit", "geom", "--theta", "28"])
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        assert main() == 0
        assert (enabled_in_run, gc.isenabled(), gc.get_freeze_count() > 0) == ([False], False, True)
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()
    assert strict_json(capsys.readouterr().out)["theta_deg"] == 28.0


# a command at a size, and its small and large size; each fit reads the scan of its size
GROWTH_CASES = [
    (lambda n, out: ["simulate", "precession", "--grid", f"0:360:{n}", "--out", str(out / str(n))],
     (1000, 100000)),
    (lambda n, out: ["fit", "precession", "--data", str(out / str(n) / "precession.csv")],
     (1000, 100000)),
    (lambda n, out: ["simulate", "pathnoise", "--duration", str(n), "--out", str(out)], (60, 6000)),
]


def test_runs_leave_no_cyclic_garbage_that_grows_with_size(capsys, tmp_path):
    # the process entry runs with the collector off, so the cyclic garbage a run leaves
    # stays until exit: it must not grow with the points or samples of the run
    left = []
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        for make, sizes in GROWTH_CASES:
            counts = []
            for n in (sizes[0], *sizes):  # a first run loads and caches what later runs reuse
                gc.collect()
                assert main(make(n, tmp_path)) == 0
                counts.append(gc.collect())
            left.append(counts)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert all(counts[2] <= counts[1] for counts in left), left


def _outputs(out_dir):
    """{file name: bytes} of out_dir; a manifest as its JSON, less the timestamp."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(".manifest.json"):
            doc = json.loads(path.read_text())
            del doc["timestamp"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


def test_process_entry_writes_what_main_argv_writes(capsys, tmp_path, monkeypatch):
    # `python -m odfkit.cli` (main() without argv, which freezes the heap before exit)
    # against main(argv) in process: the same exit codes, stdout, stderr and files
    commands = [["simulate", "thermometry", "--seed", "3", "--shots", "50", "--out", "out"],
                ["simulate", "precession", "--seed", "1", "--out", "out"],
                ["fit", "precession", "--data", "out/precession.csv"],
                ["fit", "thermometry", "--data", "out/precession.csv"]]
    entry, library = tmp_path / "entry", tmp_path / "library"
    entry.mkdir()
    library.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(odfkit.__file__).parents[1])}
    monkeypatch.chdir(library)
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "odfkit.cli", *argv], cwd=entry, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv), argv
    assert done.returncode == 2  # the last fit is unconverged
    assert _outputs(entry / "out") == _outputs(library / "out")


def test_process_entry_freezes_the_heap_and_runs_atexit_hooks(capsys):
    wrapper = ("import atexit, gc, sys\n"
               "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
               "from odfkit.cli import main\n"
               "sys.exit(main())\n")
    done = _child(["-c", wrapper, "geom", "--theta", "28"])
    _, out, _ = run(capsys, "geom", "--theta", "28")
    assert done.stdout == out + "atexit True\n"


# the trap, drive, beams and mount keys in config units, each at its default (DEFAULT_CONFIG
# or the field default); the fuzz scales it, so most draws pass validation and reach the physics
FUZZ_DEFAULTS = {
    **{(section, key): value for section, body in DEFAULT_CONFIG.items()
       for key, value in body.items() if section != "thermal"},
    ("drive", "gamma_raman_per_s"): 100.0, ("drive", "gamma_elastic_per_s"): 100.0,
    ("mount", "d_axial_m"): 28.6e-3, ("mount", "d_radial_m"): 3e-3,
    ("mount", "theta_min_deg"): 12.0, ("mount", "theta_max_deg"): 36.0,
    ("mount", "crossing_tolerance_m"): 1e-5, ("mount", "linear_travel_m"): 21e-3,
}
FUZZ_HOSTILE_FACTOR = st.one_of(st.sampled_from([1.0, 0.0, -1.0, 1e-300, 1e-3, 1e3, 1e300]),
                                st.floats(0.1, 10.0))
FUZZ_TEXT_NUMBER = st.one_of(st.floats(0.0, 60.0).map(repr),
                             st.floats(-1e3, 1e3, allow_nan=False).map(repr),
                             st.sampled_from(["0", "-0", "1e308", "5e-324", "nan", "inf", "x"]))


@st.composite
def fuzz_config(draw):
    """About half the configs scale their keys by 0.5-2, the others also by 0, -1 and 1e+-300."""
    factor = FUZZ_HOSTILE_FACTOR if draw(st.booleans()) else st.floats(0.5, 2.0)
    doc = {}
    for (section, key), default in FUZZ_DEFAULTS.items():
        if not draw(st.booleans()):
            continue
        value = default * draw(factor)
        doc.setdefault(section, {})[key] = int(value) if key == "n_ions" else value
    return doc


@st.composite
def fuzz_argv(draw, out):
    grid = st.builds(lambda a, b, n: f"{a}:{b}:{n}", FUZZ_TEXT_NUMBER, FUZZ_TEXT_NUMBER,
                     st.integers(-2, 1000))
    command = draw(st.sampled_from(["geom", "optimize-angle", "curves", "ratio-scan"]))
    argv = [command]
    if command == "geom":
        argv += draw(st.sampled_from([[], ["--theta", draw(FUZZ_TEXT_NUMBER)],
                                      ["--actuators", str(out / "pose.json")]]))
    elif command == "optimize-angle":
        if draw(st.booleans()):
            argv += ["--window", f"{draw(FUZZ_TEXT_NUMBER)}:{draw(FUZZ_TEXT_NUMBER)}"]
    else:
        argv += ["--out", str(out)]
        if draw(st.booleans()):
            argv += ["--grid", draw(grid)]
        if command == "curves" and draw(st.booleans()):
            argv += ["--nbar", ",".join(draw(st.lists(FUZZ_TEXT_NUMBER, min_size=1, max_size=3)))]
    return argv


def fuzz_pose():
    """An --actuators pose: mostly numbers in and around the stage travel, some not numbers."""
    def value(lo, hi):
        return st.one_of(st.floats(lo, hi), st.sampled_from([None, "7", True, 10 ** 400]))
    return st.fixed_dictionaries({}, optional={
        "rotary_angle_deg": value(-60.0, 60.0), "linear_pos_m": value(-0.01, 0.04),
        "tip_deg": value(-1.0, 1.0), "tilt_deg": value(-1.0, 1.0), "rotary_deg": value(0, 1)})


# derandomized: the same inputs on every run, so tier-1 stays deterministic
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), config=fuzz_config(), pose=fuzz_pose())
def test_design_commands_on_random_input_exit_cleanly(tmp_path, data, config, pose):
    argv = data.draw(fuzz_argv(tmp_path))
    (tmp_path / "pose.json").write_text(json.dumps(pose))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(tmp_path / "cfg.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1
    if code == 0 and argv[0] in ("geom", "optimize-angle"):
        strict_json(out.getvalue())


# inputs whose scalar results leave the floats: exit 1 and the out-of-range line, as
# when these commands computed in float64 under np.errstate(..., "raise")
@pytest.mark.parametrize("command,section,key,value", [
    ("optimize-angle", "drive", "delta_ac_hz", 1e300),
    ("optimize-angle", "drive", "delta_ac_hz", 1e200),
    ("optimize-angle", "beams", "laser_wavelength_m", 1e-300),
    ("optimize-angle", "beams", "laser_wavelength_m", 1e-200),
    ("optimize-angle", "beams", "laser_wavelength_m", 5e-324),
    ("geom", "beams", "laser_wavelength_m", 5e-324),
    ("optimize-angle", "drive", "gamma_per_s", 5e-324),
    ("optimize-angle", "thermal", "n_bar", 1e308),  # 2 n_bar + 1 overflows: F0 was 0
])
def test_design_command_out_of_range_input_is_one_line_error(capsys, tmp_path, command,
                                                             section, key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert err.endswith(": an input is out of the range the model computes in\n")


def test_ratio_scan_overflowing_nbar_is_one_line_error(capsys, tmp_path):
    # rows of F0 = 0 were written before
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"thermal": {"n_bar": 1e308}}))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "ratio-scan", "--config", str(cfg), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == ("error: the thermal extent <z^2> evaluates to inf: "
                   "an input is out of the range the model computes in\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "thermometry"], ["simulate", "precession"], ["curves"], ["ratio-scan"],
    ["reproduce", "fig1de"],
], ids=" ".join)
def test_zero_point_grid_is_one_line_error(capsys, tmp_path, argv):
    # exit 0 and a CSV holding only its header, which fit then rejected, before
    code, out, err = run(capsys, *argv, "--grid", "1:2:0", "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == "error: bad --grid '1:2:0', expected start:stop:n\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["curves", "--out", "{file}"],
    ["curves", "--out", "{file}/sub"],
    ["fit", "thermometry", "--data", "{dir}"],
    ["geom", "--config", "{dir}", "--theta", "28"],
    ["geom", "--actuators", "{dir}"],
], ids=["out-is-file", "out-under-file", "data-is-dir", "config-is-dir", "actuators-is-dir"])
def test_file_system_error_is_one_line_error(capsys, tmp_path, argv):
    # FileExistsError, NotADirectoryError and IsADirectoryError tracebacks before
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    argv = [word.format(file=tmp_path / "file", dir=tmp_path / "dir") for word in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


FUZZ_RUN_NUMBER = st.one_of(FUZZ_TEXT_NUMBER, st.floats(1.09e6, 1.11e6).map(repr))


@st.composite
def fuzz_run_argv(draw):
    """simulate and reproduce argv: grids of at most 1e3 points, series of at most 1e4 samples.

    fig5 is left out: its series are fixed at 2e4 path-noise samples, and its one flag,
    --seed, reaches the same generators as simulate drift and pathnoise
    (test_reproduce_fig5_is_two_simulate_series).
    """
    words = draw(st.sampled_from([
        ["simulate", "thermometry"], ["simulate", "precession"], ["simulate", "drift"],
        ["simulate", "pathnoise"], ["reproduce", "fig1de"], ["reproduce", "fig3c"],
        ["reproduce", "fig4c"]]))
    argv = list(words)
    name = words[1]
    if name != "fig1de" and draw(st.booleans()):
        argv += ["--seed", str(draw(st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))))]
    if name in ("thermometry", "precession", "fig3c", "fig4c") and draw(st.booleans()):
        argv += ["--shots", draw(st.one_of(st.integers(-1, 10 ** 6).map(str),
                                           st.sampled_from(["x", "1e3", str(2 ** 63)])))]
    if name in ("thermometry", "precession", "fig1de") and draw(st.booleans()):
        argv += ["--grid", f"{draw(FUZZ_RUN_NUMBER)}:{draw(FUZZ_RUN_NUMBER)}:"
                           f"{draw(st.integers(-2, 1000))}"]
    if name in ("drift", "pathnoise"):
        # duration = samples * spacing, so a series never exceeds 1e4 samples
        spacing = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0, 1e-300])))
        samples = draw(st.integers(-1, 10 ** 4))
        if name == "drift":
            argv += ["--duration", repr(samples * spacing), "--dt", repr(spacing)]
            if draw(st.booleans()):
                argv += ["--rate", draw(FUZZ_TEXT_NUMBER), "--jitter", draw(FUZZ_TEXT_NUMBER)]
        else:
            rate = 1.0 / spacing if spacing else 0.0
            argv += ["--duration", repr(samples * spacing), "--sample-rate", repr(rate)]
    return argv


# derandomized: the same inputs on every run, so tier-1 stays deterministic
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_run_argv(), config=st.one_of(st.just({}), fuzz_config()))
# omega_com so large that mu = omega_com + delta rounds to omega_com: an AttributeError before
@example(argv=["reproduce", "fig4c"], config={"trap": {"omega_com_hz": 1.1e306}})
def test_run_commands_on_random_input_exit_cleanly(tmp_path, argv, config):
    out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    (out_dir / "cfg.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out_dir / "out"), "--config", str(out_dir / "cfg.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1
    if code == 0:
        csvs = list((out_dir / "out").glob("*.csv"))
        assert csvs
        for path in csvs:
            assert len(path.read_text().splitlines()) >= 2, path.name


@pytest.mark.parametrize("config,command", [
    ({"beams": {"laser_wavelength_m": 3.131e293}}, "optimize-angle"),
    ({"trap": {"ion_mass_amu": 0.009012, "omega_com_hz": 1.1e-294}}, "curves"),
    ({"trap": {"omega_com_hz": 1.1e306}, "beams": {"laser_wavelength_m": 3.131e-307}},
     "ratio-scan"),
    ({"trap": {"ion_mass_amu": 2.5e-280, "omega_com_hz": 2.5e-276}}, "curves"),
], ids=["turnover-divides-by-zero", "jbar-zero-over-zero", "f0-overflows", "z0-divides-by-zero"])
def test_out_of_range_config_exits_cleanly(capsys, tmp_path, config, command):
    # a ZeroDivisionError traceback, and numpy invalid-value and overflow warnings
    # beside a NaN or infinite output, before
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_flag = [] if command == "optimize-angle" else ["--out", str(tmp_path)]
    code, out, err = run(capsys, command, "--config", str(cfg), *out_flag)
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert code == 0 and err == ""
        assert math.isfinite(strict_json(out)["ratio_N_s"])


def test_unknown_subcommand_fails(capsys):
    assert main(["frobnicate"]) == 1
