"""Correction for the speed of a shared host.

The benchmark was built on a 2-vCPU virtual machine whose host shares its
cores with other tenants.  The host's speed there changes within a second,
by up to 1.6x, and nothing in the guest shows it (no steal time, no PMU).
So a fixed probe runs beside the program, and every measured interval is
scaled by how long the probe took around it.  The probe calls no program
code: a change to the program moves the program's times, not the probe's.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# probe() timed seconds on the reference host at its full speed
PROBE_REF_S = 4.5e-4

# a 15 x 15 solution table and two 4096-entry color columns: the shape of
# one crossing of a braid applied to every coloring at once
_TABLE = (np.arange(225, dtype=np.int64).reshape(15, 15) * 7) % 15
_LEFT = (np.arange(1 << 12, dtype=np.int64) * 7919) % 15
_RIGHT = (np.arange(1 << 12, dtype=np.int64) * 104729) % 15


def _work():
    seen: dict = {}
    for i in range(240):
        key = (i % 7, i % 11, i & 3)
        seen[key] = seen.get(key, 0) + len([v * i for v in key])
    left, right = _LEFT, _RIGHT
    for _ in range(4):
        left, right = _TABLE[left, right], _TABLE[right, left]


def probe() -> tuple[float, float]:
    """(seconds spent, seconds of the timed run) of a fixed mix of the two
    kinds of work the program does, in about equal parts: interpreter work
    on dicts keyed by tuples and small lists, and numpy gathers from a
    solution table.  Its data is small and it runs once untimed first, so
    what the program left in the caches does not change the timed run."""
    start = time.perf_counter()
    _work()
    mid = time.perf_counter()
    _work()
    end = time.perf_counter()
    return end - start, end - mid


class SpeedSampler:
    """Probe samples in time order: one at every job boundary (`sample`)
    and one every `period` seconds of wall time from a SIGALRM handler,
    which runs between bytecodes and so also samples long jobs."""

    def __init__(self, period: float):
        self.period = period
        self.starts: list = []
        self.spent: list = []
        self.lengths: list = []

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        spent, length = probe()
        i = bisect.bisect(self.starts, t)
        self.starts.insert(i, t)
        self.spent.insert(i, spent)
        self.lengths.insert(i, length)

    sample = _tick

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # SIGALRM's default action ends the process; ignore a late one
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._tick()

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(probe seconds that ran inside [start, end], mean probe length
        over those and the two nearest probes on each side)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        near = self.lengths[max(lo - 2, 0):hi + 2]
        return sum(self.spent[lo:hi]), sum(near) / len(near)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] less its probes, in reference seconds."""
        inside, mean = self.window(start, end)
        return (end - start - inside) * PROBE_REF_S / mean


def normalize_pass(sampler: SpeedSampler, cpu: float, span, intervals):
    """A pass's wall and CPU seconds and its job latencies, each job scaled
    by the probes around it and the time between jobs by the pass's."""
    latencies = [sampler.scaled(start, end) for start, end in intervals]
    wall = span[1] - span[0]
    inside, mean = sampler.window(*span)
    busy = sum(end - start - sampler.window(start, end)[0]
               for start, end in intervals)
    gaps = wall - inside - busy
    wall_s = sum(latencies) + gaps * PROBE_REF_S / mean
    # the loop is single-threaded, so its CPU time takes the correction
    # of its wall time
    return {"wall_s": wall_s,
            "cpu_s": (cpu - inside) * wall_s / (wall - inside),
            "latencies_ms": [x * 1000.0 for x in latencies],
            "raw_wall_s": wall, "probe_mean_s": mean}
