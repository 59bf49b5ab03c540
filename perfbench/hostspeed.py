"""Host-speed calibration for timings on a shared machine.

On a shared host the speed of the same pure-Python work swings by up to 2x,
in phases from a fraction of a second to about a minute, so raw times of one
program differ between runs far more than any bound worth enforcing.  A Probe
runs a fixed calibration slice from a SIGALRM timer every EVERY_S of real
time, interrupting the measured work between bytecodes, and the time of an
interval is reported in reference seconds: its raw time minus the slices run
inside it, divided by the host's slowdown then, which is the mean time of the
slices in and around it over REF_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

EVERY_S = 0.1
# Time of one slice on a 2-core x86-64 VM with Python 3.11.7 in its fast
# phases; it only sets the scale of the reported reference seconds.
REF_S = 0.0025


def _work() -> None:
    # Like lrq's own work: exact fractions, dict updates, tuple keys and
    # string hashing.
    acc: dict = {}
    for i in range(1, 1000):
        key = (i % 61, str(i % 17))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)


class Probe:
    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        _work()  # the first run in a process is slower; not a sample

    def sample(self) -> float:
        """Run one slice and return its time.  The collector is off during
        the slice so the size of the measured program's heap does not enter
        it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        return t1 - t0

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in [t0, t1], an interval of
        perf_counter readings taken while the probe ran."""
        # Slices run whole between two bytecodes, so one that ends inside
        # [t0, t1] also started inside it.
        first, stop = bisect_right(self.ends, t0), bisect_left(self.ends, t1)
        work = t1 - t0 - sum(self.durations[first:stop])
        around = self.durations[max(first - 1, 0):stop + 1]
        return work * REF_S / statistics.fmean(around)

    def median_slowdown(self) -> float:
        return statistics.median(self.durations) / REF_S

    def slowdown(self) -> float:
        """The host's current slowdown, from the median of three new slices."""
        return statistics.median(self.sample() for _ in range(3)) / REF_S
