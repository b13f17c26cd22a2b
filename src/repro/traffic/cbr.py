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
        # The lane the running train is on; set_rate moves _tick_lane.
        self._train_lane = self._tick_lane

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

    def _on_start(self, epoch: int) -> None:
        self._emit(epoch)
        self._start_train(epoch)

    def _start_train(self, epoch: int) -> None:
        self._train_lane = lane = self._tick_lane
        lane.every(self._tick, epoch)

    def _tick(self, epoch: int) -> bool:
        # A train tick goes on while its lane is the current one.  After
        # set_rate, the pending tick (due at the old interval) still sends,
        # then hands over to a new train on the new lane.
        if not self._emit(epoch):
            return False
        if self._train_lane is self._tick_lane:
            return True
        self._start_train(epoch)
        return False
