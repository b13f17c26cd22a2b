"""Bursty probe source (paper Section 3.1, token-bucket-shaped probing).

The default probing stream is a smooth CBR at the token rate ``r``, which
ignores the declared bucket depth ``b``.  The paper notes the obvious
refinement: "put the probe packets into bursts of size b followed by a
quiescent period of time b/r".  This source emits exactly that pattern —
a back-to-back burst of ``b`` bytes, then silence for ``b/r`` — whose
long-run average rate is still ``r`` but whose short-timescale shape
matches the worst case the token bucket permits.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, FlowAccounting, Receiver
from repro.sim.engine import Simulator
from repro.traffic.base import Source
from repro.units import BITS_PER_BYTE


class BurstProbeSource(Source):
    """Emit ``bucket_bytes`` back-to-back, then idle for ``bucket/rate``.

    ``set_rate`` rescales the quiescent gap (used by slow-start probing);
    the burst size stays the declared bucket depth.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        rate_bps: float,
        bucket_bytes: int,
        packet_bytes: int,
        kind: int = DATA,
        prio: int = PRIO_DATA,
    ) -> None:
        super().__init__(sim, route, sink, flow, packet_bytes, kind, prio)
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
        if bucket_bytes < packet_bytes:
            raise ConfigurationError(
                f"bucket ({bucket_bytes!r} B) must hold at least one packet "
                f"({packet_bytes!r} B)"
            )
        self.rate_bps = rate_bps
        self.bucket_bytes = bucket_bytes
        self._burst_packets = max(1, math.floor(bucket_bytes / packet_bytes))
        # Bursts are a fixed-interval train, like a CBR source's ticks:
        # set_rate re-resolves the gap's lane, the running train's lane is
        # remembered so a burst can tell.
        self._gap_lane = self._train_lane = sim.lane(self.gap)

    @property
    def burst_packets(self) -> int:
        """Packets per burst."""
        return self._burst_packets

    @property
    def gap(self) -> float:
        """Quiescent time between bursts: the time ``b`` bytes take at ``r``."""
        return self._burst_packets * self.packet_bytes * BITS_PER_BYTE / self.rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the average rate by rescaling the inter-burst gap."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
        self.rate_bps = rate_bps
        self._gap_lane = self.sim.lane(self.gap)

    def _send_burst(self) -> None:
        for __ in range(self._burst_packets):
            self._emit(self._epoch)

    def _on_start(self, epoch: int) -> None:
        self._send_burst()
        self._start_train(epoch)

    def _start_train(self, epoch: int) -> None:
        self._train_lane = lane = self._gap_lane
        lane.every(self._burst, epoch)

    def _burst(self, epoch: int) -> bool:
        # Goes on while the gap's lane is unchanged; after set_rate the
        # pending burst (due at the old gap) still sends, then hands over
        # to a new train on the new lane.
        if epoch != self._epoch:
            return False
        self._send_burst()
        if self._train_lane is self._gap_lane:
            return True
        self._start_train(epoch)
        return False


def effective_probe_rate(token_rate_bps: float, bucket_bytes: int,
                         probe_duration_s: float) -> float:
    """Effective peak rate for probing (paper Section 3.1, after [9]).

    A flow conforming to an ``(r, b)`` bucket can send at most
    ``r*T + b`` bits in any window of length ``T``; probing at the mean of
    that envelope over the probe duration — ``r + b/T`` — tests the load
    the flow could actually impose while the probe lasts.
    """
    if token_rate_bps <= 0 or bucket_bytes <= 0 or probe_duration_s <= 0:
        raise ConfigurationError("rate, bucket and duration must be positive")
    return token_rate_bps + bucket_bytes * BITS_PER_BYTE / probe_duration_s
