import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odfkit
from odfkit import ScanDataset, simulate_gamma_decay
from odfkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geom_theta_28(capsys):
    code, out, _ = run(capsys, "geom", "--theta", "28")
    assert code == 0
    record = json.loads(out)
    assert record["lambda_odf_m"] == pytest.approx(6.47e-7, abs=1e-9)
    assert record["delta_k_per_m"] == pytest.approx(9.7096e6, rel=1e-4)
    assert record["feasible"] is True


def test_geom_theta_outside_window(capsys):
    code, out, _ = run(capsys, "geom", "--theta", "40")
    assert code == 0
    assert json.loads(out)["feasible"] is False


def test_geom_actuator_pose(capsys, tmp_path):
    from odfkit import MountGeometry, actuators_for_angle

    state = actuators_for_angle(math.radians(28.0), MountGeometry())
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"rotary_angle_deg": state.rotary_angle,
                                "linear_pos_m": state.linear_pos}))
    code, out, _ = run(capsys, "geom", "--actuators", str(pose))
    assert code == 0
    record = json.loads(out)
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


@pytest.mark.parametrize("doc", [[1, 2], [], 5, [{}, "pose"]],
                         ids=["numbers", "empty", "number", "string-pose"])
def test_geom_actuators_not_poses_is_one_line_error(capsys, tmp_path, doc):
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geom", "--actuators", str(pose))
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad --actuators") and "JSON object" in err
    assert len(err.splitlines()) == 1


def test_curves_writes_csv_and_manifest(capsys, tmp_path):
    code, _, _ = run(capsys, "curves", "--out", str(tmp_path),
                     "--grid", "10:30:5", "--nbar", "1.27")
    assert code == 0
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,n_bar,F0_N,Jbar_rad_s"
    assert len(lines) == 6
    manifest = json.loads((tmp_path / "curves.manifest.json").read_text())
    assert manifest["command"] == "curves"


@pytest.mark.parametrize("nbar", ["x", "1,,2"])
def test_curves_unparsable_nbar_names_flag(capsys, tmp_path, nbar):
    code, _, err = run(capsys, "curves", "--out", str(tmp_path), "--nbar", nbar)
    assert code == 1
    assert err.startswith("error: bad --nbar") and len(err.splitlines()) == 1


def test_ratio_scan_cold_ratio(capsys, tmp_path):
    code, _, _ = run(capsys, "ratio-scan", "--out", str(tmp_path), "--grid", "14:28:2")
    assert code == 0
    rows = (tmp_path / "ratio_scan.csv").read_text().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    assert ratios[1] / ratios[0] == pytest.approx(1.86, abs=0.01)


def test_simulate_is_byte_reproducible(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "simulate", "thermometry", "--out", str(out),
                         "--seed", "11", "--shots", "200")
        assert code == 0
    assert (a / "thermometry.csv").read_bytes() == (b / "thermometry.csv").read_bytes()
    ma = json.loads((a / "thermometry.manifest.json").read_text())
    mb = json.loads((b / "thermometry.manifest.json").read_text())
    assert ma["config_digest"] == mb["config_digest"]
    assert ma["seed"] == 11


def test_simulate_then_fit_thermometry(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "thermometry", "--out", str(tmp_path),
                     "--seed", "3", "--shots", "500")
    assert code == 0
    code, out, _ = run(capsys, "fit", "thermometry",
                       "--data", str(tmp_path / "thermometry.csv"))
    assert code == 0
    payload = json.loads(out)
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
    assert json.loads(out)["converged"] is True


def test_fit_gamma_dataset(capsys, tmp_path):
    ds = simulate_gamma_decay(100.0, np.linspace(0.25e-3, 5e-3, 20), shots=500, seed=1)
    path = tmp_path / "gamma.csv"
    ds.to_csv(path)
    code, out, _ = run(capsys, "fit", "gamma", "--data", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["gamma_per_s"] == pytest.approx(100.0, rel=0.1)


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
], ids=["empty", "header-only", "ragged", "narrower-than-header", "nan"])
def test_fit_malformed_csv_is_one_line_error(capsys, tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "precession", "--data", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "data.csv" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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


def test_fit_precession_repeated_small_abscissa_uses_all_points(capfd, tmp_path):
    # the theta1 <= pi/2 points give no slope; the start falls back to all points
    path = tmp_path / "data.csv"
    path.write_text("abscissa,p_up,sigma\n0,0.1,0.01\n0,0.2,0.01\n3,0.15,0.01\n"
                    "4,0.15,0.01\n")
    code, out, err = run(capfd, "fit", "precession", "--data", str(path))
    assert code == 0
    assert err == ""
    assert json.loads(out)["converged"] is True


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
    record = json.loads(out)
    assert record["theta_deg"] == pytest.approx(36.0, abs=1e-3)
    assert record["ratio_N_s"] > 0
    assert "config_digest" in record["provenance"]


def test_optimize_angle_rejects_bad_window(capsys):
    code, _, err = run(capsys, "optimize-angle", "--window", "10:36")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("window", ["20", "12:20:36", "a:36"])
def test_optimize_angle_unparsable_window_names_flag(capsys, window):
    code, _, err = run(capsys, "optimize-angle", "--window", window)
    assert code == 1
    assert err.startswith("error: bad --window") and len(err.splitlines()) == 1


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
    fits = json.loads((tmp_path / "fig3c_fits.json").read_text())
    assert set(fits) == {"doppler", "eit"}
    assert (tmp_path / "fig3c_doppler.csv").exists()
    assert (tmp_path / "fig3c_eit.csv").exists()
    assert fits["eit"]["params"]["n_bar"] == pytest.approx(1.27, abs=0.5)


def test_reproduce_fig4c(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig4c", "--out", str(tmp_path),
                     "--seed", "2", "--shots", "500")
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "fig4c.csv").read_text().splitlines()[1:]]
    eit = {float(r[1]): float(r[4]) for r in rows if r[0] == "eit"}
    assert eit[28.0] / eit[14.0] == pytest.approx(1.9, abs=0.3)


def test_reproduce_fig5(capsys, tmp_path):
    code, _, _ = run(capsys, "reproduce", "fig5", "--out", str(tmp_path), "--seed", "0")
    assert code == 0
    drift = ScanDataset.from_csv(tmp_path / "fig5a_drift.csv")
    assert np.all(np.abs(drift.p_up) <= 6e-3)
    noise = ScanDataset.from_csv(tmp_path / "fig5b_pathnoise.csv")
    rms = math.sqrt(float(np.mean(noise.p_up ** 2)))
    assert rms == pytest.approx(12e-9, rel=0.05)


@pytest.mark.parametrize("cmd", ["geom", "curves", "ratio-scan", "simulate",
                                 "fit", "optimize-angle", "reproduce"])
def test_every_subcommand_has_help(capsys, cmd):
    code = main([cmd, "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "usage" in out.lower()


def test_cli_import_loads_no_scipy():
    probe = "import sys, odfkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(odfkit.__file__).parents[1])})
    assert done.stdout.strip() == "[]"


def test_unknown_subcommand_fails(capsys):
    assert main(["frobnicate"]) == 1
