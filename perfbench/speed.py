"""The host's speed, sampled while jobs run, and job times scaled to a
reference speed.

The benchmark shares a few cores with other tenants, whose load moves the
speed of this process by up to half for tens of seconds at a time, longer
than one run.  So a SIGALRM every INTERVAL seconds interrupts whatever runs
and times KERNEL, a fixed piece of pure-Python work that does not use
quivercalc.  A job's time, less the samples taken inside it, is then scaled
by REFERENCE_S over the kernel's time around the job: it reads as the time
the job would take on a host where the kernel takes REFERENCE_S.  A change to
quivercalc moves the job's time and not the kernel's, so it shows in full.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL = 0.01          # seconds between samples
WINDOW = 0.03            # samples this close to a job set its speed
REFERENCE_S = 2e-4       # the kernel's time at the reference speed

_KEYS = [(i % 37, i % 11, str(i % 5)) for i in range(64)]


def kernel() -> int:
    """Dict, set, tuple, sort and str work, the kind the package does."""
    d, s, pairs = {}, set(), []
    for r in range(6):
        for k in _KEYS:
            d[k] = d.get(k, 0) + r
            s.add(k[:2])
            pairs.append((k[1], k[0]))
    pairs.sort()
    return len(d) + len(s) + len(pairs) + len(",".join([k[2] for k in _KEYS]))


class Sampler:
    """Kernel times, by the perf_counter() at which each sample started."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()            # a collection would be the program's work
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        """Sample for the length of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """The time from start to end, less the samples taken in it, at the
        reference speed."""
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        own = end - start - sum(self.took[lo:hi])
        lo, hi = bisect_left(self.at, start - WINDOW), bisect_left(self.at, end + WINDOW)
        near = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return own * REFERENCE_S * statistics.fmean(1 / t for t in near)

    def median_kernel_s(self) -> float:
        return statistics.median(self.took)
