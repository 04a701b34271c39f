"""Per-layer tracing of odfkit from outside the package.

`install` wraps every public function and public method of each odfkit
module (the layers are named after the modules) and rebinds the wrapper
in every odfkit namespace that holds the original, because modules such
as `cli` and `fitting` import names directly.  Each wrapper records a
span; a layer's self time is its spans' time minus their child spans.

Spans are aggregated as they close, per function: call count and self
time.  Only spans at depth 0 and 1 (`cli.main` and the subcommand it
dispatches) are kept as records of name, start, end and parent, because
the physics layers open ~1e5-1e6 spans per bulk command.  The program runs
one command at a time in one thread, so nothing waits in a queue or pool
and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("cli", "configio", "core", "geometry", "interactions", "simulate",
          "fitting", "manifest")
SAMPLERS = ("simulate.simulate_thermometry", "simulate.simulate_precession",
            "simulate.simulate_gamma_decay")
SERIES = ("simulate.simulate_path_noise", "simulate.simulate_angle_drift")
FITS = ("fitting.fit_thermometry", "fitting.fit_precession",
        "fitting.fit_far_detuned_gamma")
CSV_WRITE = "simulate.ScanDataset.to_csv"
CSV_READ = "simulate.ScanDataset.from_csv"


def _count_points(tracer, args, result):
    tracer.counters["simulate.points"] += len(result)


def _count_series(tracer, args, result):
    tracer.counters["simulate.series_samples"] += len(result)


def _count_fit(tracer, args, result):
    tracer.counters["fitting.fits"] += 1
    tracer.counters["fitting.iterations"] += result.iterations
    tracer.counters["fitting.converged"] += bool(result.converged)


def _count_written(tracer, args, result):
    tracer.counters["simulate.csv_write_bytes"] += os.path.getsize(args[1])


def _count_read(tracer, args, result):
    tracer.counters["simulate.csv_read_bytes"] += os.path.getsize(args[1])


def _count_manifest(tracer, args, result):
    tracer.counters["manifest.files"] += 1


_AFTER = {
    **{name: _count_points for name in SAMPLERS},
    **{name: _count_series for name in SERIES},
    **{name: _count_fit for name in FITS},
    CSV_WRITE: _count_written,
    CSV_READ: _count_read,
    "manifest.write_manifest": _count_manifest,
}


class Tracer:
    """Span stack plus per-function aggregates: name -> [calls, self_s]."""

    def __init__(self):
        self.stack = []  # open spans: [start, child_seconds, record index]
        self.stats = {}
        self.counters = Counter()
        self.spans = []  # [name, start, end, parent index] for depth <= 1

    def wrap(self, name, fn):
        stack, stats, spans = self.stack, self.stats, self.spans
        after = _AFTER.get(name)
        entry = stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            start = clock()
            index = None
            if depth <= 1:
                index = len(spans)
                spans.append([name, start, None, stack[-1][2] if stack else None])
            frame = [start, 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if index is not None:
                    spans[index][2] = end
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _odfkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "odfkit" or name.startswith("odfkit.")]


def install(tracer: Tracer):
    """Wrap odfkit's public callables; returns the patches for `uninstall`."""
    wrappers = {}
    patches = []
    for module in _odfkit_modules():
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    name = f"{layer}.{attr}.{meth}"
                    if meth.startswith("_"):
                        continue
                    if isinstance(member, classmethod):
                        patches.append((obj, meth, member))
                        setattr(obj, meth, classmethod(tracer.wrap(name, member.__func__)))
                    elif inspect.isfunction(member):
                        patches.append((obj, meth, member))
                        setattr(obj, meth, tracer.wrap(name, member))
    for module in _odfkit_modules():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(stats: dict, counters: Counter) -> dict:
    """Fold per-function (calls, self_s) into the named per-layer metrics."""
    def self_ms(names):
        return 1e3 * sum(stats.get(n, (0, 0.0))[1] for n in names)

    metrics = {}
    for layer in LAYERS:
        names = [n for n in stats if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(stats[n][0] for n in names), "count")
        metrics[f"{layer}.self_ms"] = (self_ms(names), "ms")
    fits = counters["fitting.fits"]
    evals = [n for n in stats if n.startswith("fitting.")
             and n.endswith(("Estimator.predict", "Estimator.jacobian"))]
    metrics.update({
        "interactions.force_magnitude.calls":
            (stats.get("interactions.force_magnitude", (0, 0.0))[0], "count"),
        "simulate.points": (counters["simulate.points"], "count"),
        "simulate.sample_self_ms": (self_ms(SAMPLERS), "ms"),
        "simulate.series_samples": (counters["simulate.series_samples"], "count"),
        "simulate.series_self_ms": (self_ms(SERIES), "ms"),
        "simulate.csv_write_ms": (self_ms([CSV_WRITE]), "ms"),
        "simulate.csv_write_bytes": (counters["simulate.csv_write_bytes"], "bytes"),
        "simulate.csv_read_ms": (self_ms([CSV_READ]), "ms"),
        "simulate.csv_read_bytes": (counters["simulate.csv_read_bytes"], "bytes"),
        "fitting.fits": (fits, "count"),
        "fitting.iterations": (counters["fitting.iterations"], "count"),
        "fitting.model_evals": (sum(stats[n][0] for n in evals), "count"),
        # with no fits there is no unconverged fit either
        "fitting.converged_ratio": (counters["fitting.converged"] / fits if fits else 1.0, "1"),
        "manifest.files": (counters["manifest.files"], "count"),
    })
    return metrics


def parse_importtime(stderr: str) -> dict:
    """Self time per top-level package from `python -X importtime`, in ms.

    Self times add up to the total import time; cumulative times of nested
    packages would count numpy and scipy again under odfkit.
    """
    totals = Counter()
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top if top in ("numpy", "scipy", "odfkit") else "stdlib"] += int(self_us) / 1e3
    return totals
