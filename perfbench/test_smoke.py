"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload once untraced and once traced and checks that every
metric BENCHMARK.json names is emitted with its unit, that the outputs
pass their checks, and that the per-layer self times add up to no more
than the traced in-process time.  Takes about three minutes.  It also
checks that each known odfkit defect the workloads leave out still shows.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
    if trace:
        self_ms = sum(result["metrics"][f"{layer}.self_ms"]["value"]
                      for layer in tracing.LAYERS)
        assert 0 < self_ms <= result["metrics"]["trace.traced_ms"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(strict=True, raises=workloads.CheckError,
                   reason="odfkit defect kept out of the workloads; see workloads.known_defect")
@pytest.mark.parametrize("name", workloads.KNOWN_DEFECTS)
def test_known_defect(name, tmp_path):
    cli = workloads.import_odfkit_cli()
    digests = {}
    for cmd in workloads.known_defect(name, tmp_path):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(cmd.argv))
        workloads.check_outputs(cmd, rc, stdout.getvalue(), tmp_path / "out", digests)
