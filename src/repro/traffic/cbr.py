"""Constant-bit-rate source.

Used for probe streams (the paper probes at the token-bucket rate ``r``)
and for simple CBR workloads in the examples.  The rate can be changed
while running — slow-start probing doubles the probe rate every second.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, FlowAccounting, Receiver
from repro.sim.engine import Simulator
from repro.traffic.base import Source
from repro.units import BITS_PER_BYTE


class ConstantRateSource(Source):
    """Emit fixed-size packets at evenly spaced intervals.

    The first packet is sent immediately on :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        rate_bps: float,
        packet_bytes: int,
        kind: int = DATA,
        prio: int = PRIO_DATA,
    ) -> None:
        super().__init__(sim, route, sink, flow, packet_bytes, kind, prio)
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
        self.rate_bps = rate_bps
        self._tick_lane = sim.lane(self.interval)

    @property
    def interval(self) -> float:
        """Current inter-packet spacing."""
        return self.packet_bytes * BITS_PER_BYTE / self.rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the emission rate; takes effect from the next packet."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
        self.rate_bps = rate_bps
        self._tick_lane = self.sim.lane(self.interval)

    def _tick(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._emit()
        self._tick_lane.call(self._tick, epoch)

    _on_start = _tick
