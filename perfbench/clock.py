"""Durations at a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over seconds to minutes, about evenly for all pure-Python
work.  So a fixed reference loop is timed between requests (at most every
``SAMPLE_EVERY_S``), and each duration is scaled by ``REFERENCE_MS`` over
the mean of the reference timings taken just before and just after it.  A
scaled duration reads as it would on a machine that runs the loop in
``REFERENCE_MS``; the raw durations are reported beside them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_MS = 1.0
SAMPLE_EVERY_S = 0.2


def reference_ms() -> float:
    """The reference loop (6,000 dict updates) timed five times, median in
    milliseconds.  The collector is paused so that a collection of the
    workload's heap does not land in the probe."""
    times = []
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            d: dict[int, int] = {}
            for i in range(6_000):
                d[i % 4999] = d.get(i % 4999, 0) + i
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times) * 1e3


class Calibration:
    def __init__(self) -> None:
        self.times: list[float] = []  # when each reference timing ended
        self.refs: list[float] = []

    def sample(self) -> None:
        self.refs.append(reference_ms())
        self.times.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for a duration from ``start`` to ``end``: the last sample
        taken before it and the first taken after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.refs[k] for k in (before, after) if 0 <= k < len(self.refs)]
        return REFERENCE_MS * len(near) / sum(near)

    def timed(self, fn) -> tuple[float, float]:
        """Run ``fn`` between two samples; its (scaled, raw) seconds."""
        self.sample()
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        self.sample()
        return (end - start) * self.scale(start, end), end - start
