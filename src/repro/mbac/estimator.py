"""Time-window load estimation (Jamin, Shenker & Danzig, INFOCOM '97).

The Measured Sum admission control algorithm estimates the load of the
admission-controlled class as the *maximum* of the per-sampling-period
average arrival rates seen over a measurement window.  When a new flow is
admitted its declared rate is added to the estimate immediately, so that a
burst of simultaneous requests cannot all be admitted against the same
(stale) measurement.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.sim.engine import Simulator, TraceSink
from repro.units import BITS_PER_BYTE


def check_sampling(sample_period: float, window_samples: int) -> None:
    """Reject a sampling plan an estimator cannot run."""
    if not (math.isfinite(sample_period) and sample_period > 0):
        raise ConfigurationError(
            f"sample period must be positive and finite, got {sample_period!r}"
        )
    if window_samples < 1:
        raise ConfigurationError(
            f"need at least one window sample, got {window_samples!r}"
        )


class TimeWindowEstimator:
    """Rolling-maximum arrival-rate estimator for one output port.

    Parameters
    ----------
    sim, port:
        The engine and the port whose admission-controlled *data* arrivals
        are measured (probe traffic, had there been any, is excluded —
        the MBAC benchmark has none).
    sample_period:
        Averaging period ``S`` for one load sample.
    window_samples:
        Number of samples ``T/S`` the maximum is taken over.
    trace:
        Optional event-trace sink (repro.obs); every sample emits one
        ``mbac`` record (decimate via ``ObsConfig.sample_every``).
    """

    def __init__(
        self,
        sim: Simulator,
        port: OutputPort,
        sample_period: float = 0.1,
        window_samples: int = 10,
        trace: Optional[TraceSink] = None,
    ) -> None:
        check_sampling(sample_period, window_samples)
        self.sim = sim
        self.port = port
        self.sample_period = sample_period
        self.window_samples = window_samples
        self._window: Deque[float] = deque(maxlen=window_samples)
        self._last_bytes = port.stats.arrived_data_bytes
        self.estimate_bps = 0.0
        self.samples_taken = 0
        self._running = False
        self.trace = trace

    def start(self) -> None:
        """Begin periodic sampling."""
        if self._running:
            return
        self._running = True
        self._last_bytes = self.port.stats.arrived_data_bytes
        self.sim.schedule(self.sample_period, self._sample)

    def stop(self) -> None:
        """Stop sampling (the pending timer fires once more, inert)."""
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        current = self.port.stats.arrived_data_bytes
        rate = (current - self._last_bytes) * BITS_PER_BYTE / self.sample_period
        self._last_bytes = current
        self._window.append(rate)
        self.samples_taken += 1
        # The measured maximum replaces the running estimate, which lets the
        # admission-time boosts decay once real measurements include the
        # newly admitted flows.
        self.estimate_bps = max(self._window)
        tr = self.trace
        if tr is not None:
            tr.emit("mbac", self.sim.now, event="sample",
                    port=self.port.name, rate_bps=rate,
                    estimate_bps=self.estimate_bps, n=self.samples_taken)
        self.sim.schedule(self.sample_period, self._sample)

    def admit(self, rate_bps: float) -> None:
        """Fold a newly admitted flow's declared rate into the estimate."""
        self.estimate_bps += rate_bps
