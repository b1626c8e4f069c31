"""Host speed, measured between ops with reference kernels that do not
touch radsurf.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
about 2x, for seconds or for whole minutes (see README.md).  The fastest
call of an op over a run cannot remove a slow-down that covers the whole
run.  So the runner measures the host speed as it goes and divides every
op time by it:

- A *tick* runs two fixed kernels once each and records each one's
  slow-down, its seconds over its NOMINAL seconds (about 1 on the unloaded
  host, about 2 in a slow episode).  `interp` is a JSON round trip of a
  nested document: it stands for interpreted code with a large footprint,
  such as scipy quadrature over Python integrands.  `draw` draws 400k
  standard normals: it stands for array code that streams megabytes, such
  as the direction draw and projection of facet Monte Carlo.  The
  slow-downs hit the two kinds of code by different amounts, so one kernel
  of each kind is needed.
- The runner ticks between ops, at most once every TICK_S seconds.
- An op kind is scaled by the kernels in SCALE_BY: `profile` and the exact
  surfaces, which are quadrature, by `interp`; `expected_surface` and the
  FD oracle, which are large-array work, by `draw`; certificates and
  polytope MC, which mix per-facet set-up with array work, by the geometric
  mean of both.  Of the kernels tried (README.md), these gave the
  steadiest figures over repeated runs of all three workloads.
- A call's scaled time is its wall time divided by the median factor of
  the ticks within WINDOW_S of the call.  Scaled times read as seconds on
  the host at NOMINAL speed.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time

import numpy as np

#: seconds of each kernel on the unloaded host (Intel Xeon, 2 vCPUs, 10th
#: percentile over a busy period); any fixed values would do, they only
#: set the scale
NOMINAL = {"interp": 2.3e-3, "draw": 5.5e-3}
BOTH = ("interp", "draw")
SCALE_BY = {"profile": ("interp",), "exact": ("interp",), "certificate": BOTH,
            "mc": BOTH, "construct": ("draw",), "fd": ("draw",), "setup": ("interp",)}
TICK_S = 0.2
WINDOW_S = 1.0
WARMUP_TICKS = 3


class Speed:
    """Kernel slow-downs ticked through one run, and the scaling of op
    times by them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._doc = {"rows": [{f"k{i}": [i, str(i), i / 3.0] for i in range(30)}
                              for _ in range(40)]}
        self.times = []  # tick midpoints, ascending
        self.logs = {name: [] for name in NOMINAL}  # log slow-down per tick
        self.seconds = 0.0  # spent ticking
        for _ in range(WARMUP_TICKS):
            self.slowdown()

    def _interp(self):
        return json.loads(json.dumps(self._doc))

    def _draw(self):
        return np.random.default_rng(3).standard_normal(400_000)

    def slowdown(self):
        """Run each kernel once: {kernel: seconds / nominal seconds}."""
        out = {}
        for name, kernel in (("interp", self._interp), ("draw", self._draw)):
            t = self.clock()
            kernel()
            out[name] = (self.clock() - t) / NOMINAL[name]
        return out

    def tick(self, force=False):
        """Record the kernels' slow-downs, unless the last tick is under
        TICK_S old."""
        now = self.clock()
        if not force and self.times and now - self.times[-1] < TICK_S:
            return
        slow = self.slowdown()
        end = self.clock()
        self.seconds += end - now
        self.times.append(0.5 * (now + end))
        for name, v in slow.items():
            self.logs[name].append(math.log(v))

    def factors(self, kernels, lo=0, hi=None):
        """Geometric mean over `kernels` of the slow-downs of ticks lo:hi."""
        cols = [self.logs[k][lo:hi] for k in kernels]
        return [math.exp(sum(row) / len(row)) for row in zip(*cols)]

    def at(self, start, end, kernels):
        """Median factor of the ticks within WINDOW_S of [start, end]; the
        nearest tick's when none is that close."""
        if not self.times:
            raise RuntimeError("no speed ticks recorded")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo >= hi:
            lo = min(range(len(self.times)), key=lambda i: min(
                abs(self.times[i] - start), abs(self.times[i] - end)))
            hi = lo + 1
        return statistics.median(self.factors(kernels, lo, hi))

    def scale(self, kind, start, seconds):
        """Wall seconds of a `kind` call that began at `start`, at nominal
        speed."""
        return seconds / self.at(start, start + seconds, SCALE_BY[kind])

    def summary(self):
        out = {"ticks": len(self.times), "tick_seconds": self.seconds}
        for name in NOMINAL:
            f = self.factors((name,))
            if f:
                out[name] = {"min": min(f), "p50": statistics.median(f), "max": max(f)}
        return out


def scale_now(kind, seconds, n=9):
    """`seconds` just measured, at nominal speed: for one-off timings,
    scaled by the median factor of `n` ticks in a row."""
    sp = Speed()
    for _ in range(n):
        sp.tick(force=True)
    return seconds / statistics.median(sp.factors(SCALE_BY[kind]))
