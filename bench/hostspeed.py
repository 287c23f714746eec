"""Elapsed time converted to seconds at a reference host speed.

A shared host runs other tenants on the same cores, and the speed a
process gets swings by a factor of two within a second and drifts over
minutes.  A fixed pure-Python probe, timed on the same CPU at the same
moment as the work, swings with it: the work's elapsed time divided by the
probe's time barely moves.  The benchmark reports

    reference seconds = elapsed seconds * PROBE_REF_S / probe seconds

where the probe's time is the mean of the probes taken just before, during
and just after the interval, and the time the probes themselves took
inside the interval is left out.  The work being measured never runs
inside the probe, so a slower program reads slower by the same factor.

Probes are taken explicitly between operations (``probe()``) and, for work
that runs in this process, every PROBE_EVERY_S from a SIGALRM handler
(``ticking()``), so an operation of seconds is sampled throughout.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import time
from array import array
from bisect import bisect_left

clock = time.perf_counter

PROBE_ROUNDS = 400
# median time of one probe on the reference host (2-core x86-64 VM,
# CPython 3.11); sets the scale of every reported time
PROBE_REF_S = 0.00012
PROBE_EVERY_S = 0.01


def _probe_work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ROUNDS):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + 1
        total += len(str(i))
    return total


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that a child runs
    where the parent's probes ran.  The host's CPUs differ in speed and
    do not move together."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    def __init__(self):
        self.at = array("d")      # start of each probe
        self.took = array("d")    # its duration
        self.spent = array("d")   # durations summed up to and including it
        self._busy = False
        for _ in range(20):       # warm the probe's code and caches
            _probe_work()

    def probe(self) -> None:
        if self._busy:            # a tick that lands inside a probe
            return
        self._busy = True
        t0 = clock()
        _probe_work()
        t1 = clock()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + t1 - t0)
        self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Probe every PROBE_EVERY_S while the block runs."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of clock(), less the
        probes inside it.  Needs a probe before a and one after b."""
        i, j = bisect_left(self.at, a), bisect_left(self.at, b)
        inside = (self.spent[j - 1] if j else 0.0) - (self.spent[i - 1] if i else 0.0)
        lo, hi = max(i - 1, 0), min(j + 1, len(self.at))
        if lo >= hi:
            raise ValueError("no probe around the interval")
        speed = math.fsum(self.took[lo:hi]) / (hi - lo)
        return (b - a - inside) * PROBE_REF_S / speed
