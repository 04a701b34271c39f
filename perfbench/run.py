"""odfkit benchmark: CLI workloads timed end to end, and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

`--trace 0` runs the workload as a user does: one fresh
`python -m odfkit.cli ...` process at a time with PYTHONPATH=src, in a
closed loop by one client, repeating the workload's command cycle until
`--seconds` of host-adjusted invocation time have passed, and at least
two cycles and MIN_INVOCATIONS invocations.  It reports the end-to-end
metrics.  `--trace 1` times the imports, makes one
such pass, then runs the same commands in this process through
`odfkit.cli.main(argv)`, twice untraced and then traced (see tracing.py),
and reports the per-layer metrics.

Every time is host-adjusted (see hostref.py).  The raw values, the
reference times, the CSV digests, per-command times and the environment
go into the `report` line printed before the final line, which is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostref
import tracing
import workloads

SRC = workloads.SRC
ROOT = SRC.parent
WORK = ROOT / ".bench_work"

# At least two cycles, so repeated commands can be compared byte for byte,
# and enough invocations that the median is not one command's time.
MIN_CYCLES = 2
MIN_INVOCATIONS = 9
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 140.0  # start no cycle expected to end later than this
TAIL_BEYOND = 10  # the tail percentile must have this many invocations beyond it
IMPORT_ARGV = [sys.executable, "-c", "import odfkit.cli"]


@dataclass
class Invocation:
    label: str
    rc: int
    raw_s: float
    rss_mb: float
    stdout: str
    stderr: str
    adjusted_s: float = 0.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(label, argv, log_dir: Path) -> Invocation:
    """Run one child from spawn to exit, with its ru_maxrss from wait4."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(label, proc.returncode, elapsed, usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Run:
    """Invocations, reference times, checks and CSV digests of one benchmark run."""

    def __init__(self, workload, seed, scale):
        self.work = _fresh_dir(WORK / workload)
        self.out = self.work / "out"
        self.cmds = workloads.build(workload, seed, self.work, scale)
        self.digests = {}
        self.invocations = []
        self.failures = []
        self.refs = []

    def _bracket(self, step):
        """Run step() between two reference samples and host-adjust its time.

        Consecutive steps share a sample: the one after a step is the one
        before the next.
        """
        if not self.refs:
            self.refs.append(hostref.reference_ms())
        inv = step()
        self.refs.append(hostref.reference_ms())
        inv.adjusted_s = hostref.adjust(inv.raw_s, self.refs[-2], self.refs[-1])
        return inv

    def timed_child(self, label, argv) -> Invocation:
        return self._bracket(lambda: _spawn(label, argv, self.work))

    def timed_in_process(self, cmd, cli) -> Invocation:
        def step():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                rc = cli.main(list(cmd.argv))
                elapsed = time.perf_counter() - start
            return Invocation(cmd.label, rc, elapsed, 0.0, stdout.getvalue(), stderr.getvalue())
        return self._bracket(step)

    def record(self, cmd, inv: Invocation):
        self.invocations.append(inv)
        try:
            workloads.check_outputs(cmd, inv.rc, inv.stdout, self.out, self.digests)
        except Exception as err:  # any broken output counts as one failed invocation
            self.failures.append(f"{cmd.label}: {type(err).__name__}: {err}; "
                                 f"stderr: {inv.stderr.strip()[-300:]}")

    def new_cycle(self):
        _fresh_dir(self.out)

    def cli_cycle(self):
        self.new_cycle()
        for cmd in self.cmds:
            argv = [sys.executable, "-m", "odfkit.cli", *cmd.argv]
            self.record(cmd, self.timed_child(cmd.label, argv))


# -- statistics and environment ------------------------------------------------


def tail(values):
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND values beyond it, but never below p90, linearly interpolated.

    A run makes 9-14 invocations at the seed commit, too few for ten
    beyond p90; the maximum of so few varied about twice as much from run
    to run as p90 does.
    """
    n = len(values)
    q = next((q for q in range(99, 90, -1) if n * (100 - q) / 100 >= TAIL_BEYOND), 90)
    return float(np.percentile(values, q)), q


def _per_command(invocations):
    by_label = {}
    for inv in invocations:
        by_label.setdefault(inv.label, []).append(inv)
    return {label: {"n": len(invs),
                    "wall_ms_p50": 1e3 * statistics.median(i.adjusted_s for i in invs),
                    "raw_ms_p50": 1e3 * statistics.median(i.raw_s for i in invs),
                    "rss_mb_max": max(i.rss_mb for i in invs)}
            for label, invs in by_label.items()}


def environment(seed):
    env = {
        "commit": _git_commit(),  # None outside a git work tree
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "ref_nominal_ms": hostref.REF_NOMINAL_MS,
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("model name", "cache size")):
                    key, _, value = line.partition(":")
                    env.setdefault(key.strip().replace(" ", "_"), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
    env["caches"] = caches
    return env


def _src_digest():
    """SHA-256 over the paths and contents of the odfkit sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "odfkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- end-to-end run ------------------------------------------------------------


def run_end_to_end(workload, seed, seconds, scale):
    started = time.perf_counter()
    run = Run(workload, seed, scale)
    setup = [run.timed_child("setup", IMPORT_ARGV) for _ in range(SETUP_SAMPLES)]
    cycles = 0
    while (cycles < MIN_CYCLES or len(run.invocations) < MIN_INVOCATIONS
           or sum(i.adjusted_s for i in run.invocations) < seconds):
        cycle_start = time.perf_counter()
        run.cli_cycle()
        cycles += 1
        now = time.perf_counter()
        if now - started + (now - cycle_start) > RUN_DEADLINE_S:
            break

    invs = run.invocations
    walls = [i.adjusted_s * 1e3 for i in invs]
    raw_walls = [i.raw_s * 1e3 for i in invs]
    points = sum(cmd.points for cmd in run.cmds) * cycles
    tail_ms, tail_q = tail(walls)
    metrics = {
        "wall_ms_p50": (statistics.median(walls), "ms"),
        "wall_ms_tail": (tail_ms, "ms"),
        "points_per_s": (points / sum(i.adjusted_s for i in invs), "1/s"),
        "setup_s": (statistics.median(s.adjusted_s for s in setup), "s"),
        "peak_rss_mb": (max(i.rss_mb for i in invs), "MB"),
    }
    report = {
        "cycles": cycles,
        "invocations": len(invs),
        "tail_percentile": tail_q,
        "raw": {"wall_ms_p50": statistics.median(raw_walls),
                "wall_ms_tail": tail(raw_walls)[0],
                "points_per_s": points / sum(i.raw_s for i in invs),
                "setup_s": statistics.median(s.raw_s for s in setup)},
        "commands": _per_command(invs),
    }
    return run, metrics, report


# -- traced run ----------------------------------------------------------------


def _import_times(run):
    """Per-package import self times (adjusted ms), medians of IMPORT_SAMPLES children."""
    argv = [sys.executable, "-X", "importtime", "-c", "import odfkit.cli"]
    samples = []
    for _ in range(IMPORT_SAMPLES):
        inv = run.timed_child("importtime", argv)
        factor = inv.adjusted_s / inv.raw_s
        sample = {k: v * factor for k, v in tracing.parse_importtime(inv.stderr).items()}
        sample["interp"] = inv.adjusted_s * 1e3 - sum(sample.values())
        samples.append(sample)
    return {k: statistics.median(s.get(k, 0.0) for s in samples)
            for k in ("interp", "stdlib", "numpy", "scipy", "odfkit")}


def run_traced(workload, seed, seconds, scale):
    run = Run(workload, seed, scale)
    imports = _import_times(run)
    run.cli_cycle()
    cli_ms = statistics.median(i.adjusted_s * 1e3 for i in run.invocations)
    cli_raw_ms = statistics.median(i.raw_s * 1e3 for i in run.invocations)

    # in this process: a first pass pays the one-time costs (lazy imports,
    # first calls), a second is the untraced baseline for the traced pass
    cli = workloads.import_odfkit_cli()
    for _ in range(2):
        run.new_cycle()
        plain = []
        for cmd in run.cmds:
            inv = run.timed_in_process(cmd, cli)
            run.record(cmd, inv)
            plain.append(inv)

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        run.new_cycle()
        traced = [run.timed_in_process(cmd, cli) for cmd in run.cmds]
    finally:
        tracing.uninstall(patches)
    for cmd, inv in zip(run.cmds, traced):  # checks may call odfkit too
        run.record(cmd, inv)

    traced_ms = 1e3 * sum(i.adjusted_s for i in traced)
    plain_ms = 1e3 * sum(i.adjusted_s for i in plain)
    metrics = {f"import.{k}_ms": (v, "ms") for k, v in imports.items()}
    metrics["import.share_of_wall"] = (sum(imports.values()) / cli_ms, "1")
    # one factor for the traced pass keeps the layers' sum within its time
    factor = traced_ms / (1e3 * sum(i.raw_s for i in traced))
    stats = {name: (calls, self_s * factor) for name, (calls, self_s) in tracer.stats.items()}
    metrics.update(tracing.layer_metrics(stats, tracer.counters))
    metrics.update({
        "host.ref_ms": (statistics.median(run.refs), "ms"),
        "host.wall_raw_ms_p50": (cli_raw_ms, "ms"),
        "trace.inprocess_ms": (plain_ms, "ms"),
        "trace.traced_ms": (traced_ms, "ms"),
        "trace.overhead_ratio": (traced_ms / plain_ms, "1"),
    })
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    report = {
        "waited": "not applicable: one process, one thread, no queue or pool",
        "commands": _per_command(run.invocations[:len(run.cmds)]),
        "spans": [[name, 1e3 * (start - origin), 1e3 * (end - start), parent]
                  for name, start, end, parent in tracer.spans],
    }
    return run, metrics, report


# -- entry point ---------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, scale):
    runner = run_traced if trace else run_end_to_end
    try:
        run, metrics, report = runner(workload, seed, seconds, scale)
    finally:
        shutil.rmtree(WORK / workload, ignore_errors=True)
    fail_ratio = len(run.failures) / len(run.invocations)
    report = {"workload": workload, "trace": trace,
              "environment": environment(seed), "fail_ratio": fail_ratio, **report,
              "ref_ms": run.refs,
              "invocation_raw_ms": [[i.label, 1e3 * i.raw_s] for i in run.invocations],
              "failures": run.failures[:20],
              "csv_sha256": run.digests}
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:38s} {value:16.6g} {unit}")
    print(f"{workload:12s} {'fail_ratio':38s} {fail_ratio:16.6g} 1")
    print(json.dumps({"report": report}))
    return {
        "correct": not run.failures,
        "attempted": len(run.invocations),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host-adjusted invocation time to measure, at least two cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "odfkit" / "cli.py").is_file():
        print(f"error: no odfkit sources at {SRC}; run from an odfkit checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, args.scale)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
