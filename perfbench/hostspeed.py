"""Host-speed probe: scales the benchmark's timings to a reference host speed.

On a shared machine the same op can take 1.5x longer for seconds or minutes
at a time, while the work it does is unchanged.  A fixed probe — a few
milliseconds of pure-Python dictionary work and a NumPy sort of 200k keys,
the kinds of work the timer does on arrays the size of its 100k-net planes —
is timed between ops, outside the timed region.  Each op's time is multiplied
by ``NOMINAL_S / median(probe samples)``, taken over the ``NEAR`` probe samples
closest to it in time, so it reads as if the probe had taken its nominal time
and a host that speeds up or slows down within a run is followed op by op.

Neighbours slow the kinds of work unequally.  In a 100 s edit loop on a
2-vCPU host, the warm re-time moved by 33% (quartile distance over median)
and the update by 28%; scaled by this probe, medians of 25 consecutive ops
moved by 2% and 4%.  A probe with a 32 MB array copy instead of the large
sort tracked the update as well but the re-time three times worse.

The probe runs in the benchmark's own thread between ops.  A change that leaves
work running between ops (a busy thread, a spinning pool) slows the probe and
so flatters its own figures; the raw op times stay in the run's detail file.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

import numpy as np

#: The probe's time on the reference host [s]; scaled timings assume it.
NOMINAL_S = 8e-3
#: Probe time spent per second of measured work.
SHARE = 0.1
#: Probe samples that scale one op: the ones nearest to it in time.
NEAR = 5

_KEYS = np.random.default_rng(0).random(200_000)


def _probe() -> None:
    counts: dict = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    np.argsort(_KEYS)


class HostSpeed:
    """Probe samples of one measurement window."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: perf_counter() at the end of each sample, ascending
        self.times: List[float] = []
        self._debt = 0.0

    def after(self, busy_s: float) -> None:
        """Sample the probe for ``SHARE`` of ``busy_s`` of measured work."""
        self._debt += busy_s * SHARE
        while self._debt > 0.0:
            started = time.perf_counter()
            _probe()
            ended = time.perf_counter()
            self.samples.append(ended - started)
            self.times.append(ended)
            self._debt -= ended - started

    def scale(self) -> float:
        """Factor that maps this window's timings to the reference host speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def scale_near(self, start: float, end: float) -> float:
        """Factor for an op timed from ``start`` to ``end``: the median of the
        ``NEAR`` samples that ended closest to it."""
        times = self.times
        low = bisect.bisect_left(times, start) - 1
        high = bisect.bisect_left(times, end)
        picked = self.samples[low + 1:high]
        while len(picked) < NEAR and (low >= 0 or high < len(times)):
            if high == len(times) or (low >= 0 and start - times[low] <= times[high] - end):
                picked.append(self.samples[low])
                low -= 1
            else:
                picked.append(self.samples[high])
                high += 1
        return NOMINAL_S / statistics.median(picked)
