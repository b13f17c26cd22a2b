"""The benchmark's yardstick: clocks, host-speed calibration, timed spans.

The containers this runs in switch between two CPU speeds about 28 % apart,
each lasting one to ten seconds (measured; see bench/README.md), so a raw
wall-clock second is not a stable unit.  Every timed span is therefore
bracketed by two runs of a fixed calibration loop, and its time is scaled
to *reference-host seconds*: the time the span would have taken on a host
whose calibration loop takes :data:`CALIB_REF_S`.  Raw seconds are kept
beside the scaled ones so the size of the correction is always visible.

The calibration loop lives here and not in ``repro.perf`` on purpose: the
yardstick must not be part of the program under test.
"""

from __future__ import annotations

import heapq
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Calibration time of the reference host (this container's fast regime).
CALIB_REF_S = 0.006


def now() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def calibrate() -> float:
    """Best-of-three seconds for a fixed heap push/pop cycle (~6 ms).

    The same mix of float compares, list traffic and C-level heap calls
    that dominates the simulator's inner loop, so it slows down and speeds
    up with the host the way the workloads do.
    """
    best = float("inf")
    for _ in range(3):
        heap: List[int] = []
        push, pop = heapq.heappush, heapq.heappop
        start = time.perf_counter()
        for i in range(20_000):
            push(heap, (i * 2654435761) % 100_003)
        while heap:
            pop(heap)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class Span:
    """One timed interval with the host speed measured around it."""

    wall: float
    cpu: float
    #: Mean of the calibrations taken just before and just after.
    calib: float

    @property
    def scale(self) -> float:
        """Factor from raw seconds to reference-host seconds."""
        return CALIB_REF_S / self.calib

    @property
    def wall_ref(self) -> float:
        """Wall time in reference-host seconds."""
        return self.wall * self.scale

    @property
    def cpu_ref(self) -> float:
        """CPU time in reference-host seconds."""
        return self.cpu * self.scale


class SpanTimer:
    """Times consecutive spans, calibrating the host between them.

    ``begin`` opens a span, ``pause``/``resume`` exclude the benchmark's
    own checking from it, ``end`` closes it and calibrates.  Calibration
    runs outside every span, so it costs run time but no measured time.
    Keep spans near one second: the host's speed regimes last longer than
    that, so the two bracketing calibrations describe the span between.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # The first calibration after a burst of imports reads up to twice
        # too slow (fresh heap pages), so one is thrown away.
        calibrate()
        self.calibrations: List[float] = [calibrate()]
        self._wall = 0.0
        self._cpu = 0.0
        self._t = 0.0
        self._c = 0.0
        self._running = False

    def begin(self) -> None:
        """Open a new span and start its clocks."""
        self._wall = self._cpu = 0.0
        self.resume()

    def resume(self) -> None:
        """Restart the clocks of the open span."""
        self._running = True
        self._c = cpu_now()
        self._t = time.perf_counter()

    def pause(self) -> None:
        """Stop the clocks of the open span, keeping what they read."""
        if self._running:
            self._wall += time.perf_counter() - self._t
            self._cpu += cpu_now() - self._c
            self._running = False

    def end(self) -> Span:
        """Close the open span; its host speed is the bracketing mean."""
        self.pause()
        before = self.calibrations[-1]
        after = calibrate()
        self.calibrations.append(after)
        span = Span(self._wall, self._cpu, (before + after) / 2.0)
        self.spans.append(span)
        return span

    def take(self) -> List[Span]:
        """The spans closed since the last ``take`` (and forget them)."""
        spans, self.spans = self.spans, []
        return spans


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of a sample.

    With fewer than ~40 samples no percentile above the third quartile is
    supported (the choosing-metrics rule wants ten samples beyond it), so
    none is reported.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }
