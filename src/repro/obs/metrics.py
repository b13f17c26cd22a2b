"""Metrics registry: counters, gauges, histograms with label sets.

Deliberately small and dependency-free.  A :class:`MetricsRegistry` is
created per scenario run, populated mostly by *harvesting* the counters
the components already keep (see :mod:`repro.obs.collect`) — so the hot
paths pay nothing — plus a few live instruments on low-rate paths.

Determinism contract: :meth:`MetricsRegistry.to_dict` sorts series by
``(kind, name, labels)`` and serializes canonically, so two identical
runs produce byte-identical metrics dumps and ``python -m repro.obs
diff`` reports zero deltas.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro import canonical

#: Canonical label representation: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds — tuned for fractions/ratios
#: (probe loss fraction, utilization); pass explicit bounds otherwise.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time value (may go up or down)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value


class Histogram:
    """Cumulative-bucket histogram over fixed upper bounds."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Create-on-first-use registry of named, labelled instruments.

    A ``(name, labels)`` pair always resolves to the same instrument
    object; asking for the same name with a different instrument kind is
    a bug and raises ``ValueError``.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_kinds")

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._kinds: Dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        existing = self._kinds.setdefault(name, kind)
        if existing != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {existing}, "
                f"cannot re-register as a {kind}"
            )

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        self._claim(name, "counter")
        key = (name, _labelset(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        self._claim(name, "gauge")
        key = (name, _labelset(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        self._claim(name, "histogram")
        key = (name, _labelset(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(bounds)
        return inst

    def to_dict(self) -> Dict[str, Any]:
        """Canonical, JSON-ready snapshot (deterministically ordered)."""
        counters = [
            {"name": name, "labels": dict(labels), "value": inst.value}
            for (name, labels), inst in sorted(self._counters.items())
        ]
        gauges = [
            {"name": name, "labels": dict(labels), "value": inst.value}
            for (name, labels), inst in sorted(self._gauges.items())
        ]
        histograms = [
            {
                "name": name,
                "labels": dict(labels),
                "bounds": list(inst.bounds),
                "buckets": list(inst.bucket_counts),
                "count": inst.count,
                "sum": inst.total,
            }
            for (name, labels), inst in sorted(self._histograms.items())
        ]
        return {
            "v": 1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        """The snapshot as canonical JSON (sorted keys, compact)."""
        return canonical.dumps(self.to_dict())
