"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a shared 2-vCPU Xeon virtual machine the same pure-Python loop took
140 ms in one second and 230 ms a few seconds later; the machine flips
between a fast and a slow state, and a state can last long enough to move
the median of a whole run by 25% or more. Process CPU time drifts the same way, so it
is no cure, and calibrating only between ops misses flips inside a
two-second build.

So while ops are measured, ``SpeedSampler`` runs a short fixed calibration
loop from a SIGALRM handler every ``INTERVAL_S``: the handler runs between
bytecodes of whatever the program is doing, so the samples land inside ops
as well as between them. An op's calibrated time is its wall time, minus
the time spent in the handler, times the mean of ``REFERENCE_MS / sample ms``
over the samples taken during it (or the nearest sample on each side, for an
op shorter than the interval). That is the time the op would take on a
machine where the loop takes REFERENCE_MS.

In the slow periods memory-heavy ops slow down more than this loop, so the
correction is partial: a hybrid query slowed 1.6x in wall time and 1.2x
calibrated. The loop is part of the benchmark definition: changing it,
REFERENCE_MS or INTERVAL_S changes every calibrated figure. Raw wall-clock
figures are printed next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_MS = 0.25
INTERVAL_S = 0.03

# FNV-1a over a short byte string: Python-int arithmetic on a working set
# that stays in the first-level cache. Loops that tokenised text were tried
# first: their speed relative to other code shifted by up to a third from one
# process to the next (memory layout, caches evicted by the op), which moved
# calibrated medians more than the machine's own drift.
_BYTES = b"calibration-bytes" * 120


def _work() -> int:
    h = 0xCBF29CE484222325
    for byte in _BYTES:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class SpeedSampler:
    """Samples machine speed on a timer while active; times ops against it."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.times: list[float] = []  # sample start, perf_counter seconds
        self.speeds: list[float] = []  # REFERENCE_MS / sample ms
        self.sampling_s = 0.0  # total time spent inside samples
        self._busy = False  # an alarm during a sample must not nest a second one
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        self._busy = False
        self.times.append(start)
        self.speeds.append(REFERENCE_MS / ((end - start) * 1000.0))
        self.sampling_s += end - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (result, (start, end, wall seconds without sampling))."""
        sampled = self.sampling_s
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, (start, end, end - start - (self.sampling_s - sampled))

    def calibrated(self, interval: tuple[float, float, float]) -> float:
        """Calibrated seconds of an op timed by ``time``; call after the sampler exits."""
        start, end, wall = interval
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        speeds = self.speeds[lo:hi] or self.speeds[max(0, lo - 1) : lo + 1]
        return wall * sum(speeds) / len(speeds)
