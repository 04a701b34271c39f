"""Host-speed reference: a fixed child process that starts the interpreter
and imports numpy.

On a shared 2-CPU VM the same work can take 15-40% more or less time from
one minute to the next, so raw wall times do not repeat from run to run.
The benchmark runs the reference right before and right after each timed
step and rescales the step to a host on which the reference takes
REF_NOMINAL_MS:

    adjusted = raw * REF_NOMINAL_MS / mean(ref_before, ref_after)

The reference is a child process because an odfkit invocation is mostly
process start, imports and numpy work.  An in-process Python/numpy loop
of ~75 ms was tried first: its times did not correlate with those of the
CLI children (r ~ 0.0 over 28 `geom` calls) and adjusting by it widened
the spread, while this child's times did correlate (r ~ 0.75) and
adjusting by them cut the per-command spread by about a fifth.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Median of reference_ms() on the 2-CPU VM the benchmark was defined on
# (Intel Xeon, Python 3.11.7, numpy 2.4.6).  It fixes the unit of every
# adjusted time; changing it rescales them all.
REF_NOMINAL_MS = 215.0

REF_ARGV = [sys.executable, "-I", "-c", "import numpy"]


def reference_ms() -> float:
    """Raw wall time of one reference child, in ms."""
    start = time.perf_counter()
    subprocess.run(REF_ARGV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return (time.perf_counter() - start) * 1e3


def adjust(raw: float, before: float, after: float) -> float:
    """Rescale `raw` (any unit) to the nominal host speed."""
    return raw * REF_NOMINAL_MS * 2.0 / (before + after)
