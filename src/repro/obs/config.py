"""Observability configuration (:class:`ObsConfig`).

A frozen, hashable dataclass so it can nest inside
``ScenarioConfig.obs`` and participate in the persistent result cache's
content-addressed keys (``repro.experiments.cache`` canonicalizes nested
dataclasses recursively).  Tracing and metrics are *part of the run's
identity*: a traced run and an untraced run are distinct cache entries,
which is exactly what byte-identity guarantees require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.errors import ConfigurationError

#: Trace categories the instrumented stack emits today.  The set is open
#: (``ObsConfig`` accepts unknown names so configs survive renames), but
#: these are the documented ones — see DESIGN.md §13 for each schema.
KNOWN_CATEGORIES: Tuple[str, ...] = (
    "sim",    # engine housekeeping (heap compactions)
    "port",   # per-port drops: queue overflow, blackhole, wire loss, flush
    "tx",     # per-packet transmit completions (high rate; sample this)
    "probe",  # endpoint probe lifecycle: start/stall/retry/renege/decision
    "fault",  # fault-schedule applications (down/up/degrade/...)
    "mbac",   # measurement-based admission: estimator samples, decisions
)


@dataclass(frozen=True)
class ObsConfig:
    """What to observe during a scenario run.

    Parameters
    ----------
    metrics:
        Harvest the end-of-run metrics snapshot
        (:func:`~repro.obs.collect.collect_run`) into
        ``ScenarioResult.metrics``.
    trace:
        Record sim-time-stamped JSONL events into ``ScenarioResult.trace``.
    categories:
        Trace categories to keep; empty means *all*.  Unknown names are
        allowed (they simply never match).
    sample_every:
        Per-category decimation as ``(category, n)`` pairs: keep every
        n-th record of that category (deterministic — the counter is part
        of the recorder, not a clock or RNG).  ``n=1`` keeps everything.
    max_records:
        Hard cap on kept trace records; further emissions are counted but
        dropped, so a runaway category cannot exhaust memory.
    timeseries:
        Attach a :class:`~repro.obs.timeseries.TimeSeriesSampler` to the
        run: a periodic sampler scheduled on *sim time* that snapshots
        per-port utilization/backlog/loss, per-class admission state, and
        MBAC estimator state into ``ScenarioResult.timeseries``.
    timeseries_interval:
        Sampling period in sim seconds (must be positive and finite).
    timeseries_max_samples:
        Hard cap on samples taken; once reached the sampler stops
        rescheduling itself, so a long run cannot grow the series
        unboundedly.
    """

    metrics: bool = True
    trace: bool = True
    categories: Tuple[str, ...] = ()
    sample_every: Tuple[Tuple[str, int], ...] = ()
    max_records: int = 200_000
    timeseries: bool = False
    timeseries_interval: float = 5.0
    timeseries_max_samples: int = 4096

    def __post_init__(self) -> None:
        if self.max_records < 0:
            raise ConfigurationError(
                f"max_records must be >= 0, got {self.max_records}"
            )
        interval = self.timeseries_interval
        if not isinstance(interval, (int, float)) or not math.isfinite(
            interval
        ) or interval <= 0:
            raise ConfigurationError(
                f"timeseries_interval must be a positive finite number, "
                f"got {interval!r}"
            )
        if self.timeseries_max_samples < 1:
            raise ConfigurationError(
                f"timeseries_max_samples must be >= 1, "
                f"got {self.timeseries_max_samples}"
            )
        seen: Set[str] = set()
        for pair in self.sample_every:
            if len(pair) != 2:
                raise ConfigurationError(
                    f"sample_every entries must be (category, n) pairs, "
                    f"got {pair!r}"
                )
            category, every = pair
            if not isinstance(category, str) or not category:
                raise ConfigurationError(
                    f"sample_every category must be a non-empty string, "
                    f"got {category!r}"
                )
            if not isinstance(every, int) or every < 1:
                raise ConfigurationError(
                    f"sample_every interval for {category!r} must be a "
                    f"positive int, got {every!r}"
                )
            if category in seen:
                raise ConfigurationError(
                    f"duplicate sample_every entry for {category!r}"
                )
            seen.add(category)

    @property
    def enabled(self) -> bool:
        """True if this config turns anything on at all."""
        return self.metrics or self.trace or self.timeseries

    def sampling(self) -> Dict[str, int]:
        """The ``sample_every`` pairs as a plain dict."""
        return dict(self.sample_every)
