"""Machine-speed probe: converts measured seconds to reference seconds.

The machines this benchmark runs on are shared virtual machines. Their CPU
speed drifts by up to ±30% over tens of seconds, for every job class at once
and on every vCPU, while the work itself does not change. A run of 30 s
cannot average such swings out, so the spread of raw times between runs is
set by the machine, not by the program.

The probe is a fixed pure-Python loop, independent of rlab, timed between
jobs (outside the job timers). A time measured over [start, end] is scaled
by `REF_S / m`, where m is the median probe time within `WINDOW_S` of that
interval. The result is in reference seconds: the time the same work would
take on a machine where the probe loop takes `REF_S`. Work that the
program adds or removes changes the scaled time in proportion, while a
machine-wide slow-down changes the probe and the job alike and cancels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

LOOPS = 30_000      # iterations of one probe, about 2 ms
EVERY_S = 0.05      # least time between two probes
WINDOW_S = 1.0      # probes this close to an interval scale the time measured in it
REF_S = 0.002       # probe time at the reference speed


def probe_loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


class Speedometer:
    """Probe samples of one run, and the scaling of measured intervals."""

    def __init__(self):
        self.at: list[float] = []        # midpoints of the probes, increasing
        self.seconds: list[float] = []   # their durations
        self._last = float("-inf")

    def probe(self, force: bool = False) -> float:
        """Time one probe unless one ran less than `EVERY_S` ago; returns time spent."""
        start = perf_counter()
        if not force and start - self._last < EVERY_S:
            return 0.0
        probe_loop()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end
        return end - start

    def scale(self, start: float, seconds: float) -> float:
        """Factor from `seconds` measured from `start` on to reference seconds."""
        if not self.at:
            raise ValueError("no probes were taken")
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + seconds + WINDOW_S)
        if lo == hi:  # no probe close by: the nearest one on either side
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REF_S / median(self.seconds[lo:hi])

    def slowness(self) -> float:
        """Median probe time over the reference: 1.0 at the reference speed."""
        return median(self.seconds) / REF_S
