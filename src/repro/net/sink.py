"""Receiving endpoints.

A sink terminates packet routes: it credits the flow's accounting record,
counts ECN marks, and optionally records end-to-end latency.  The probe
receiver of an endpoint-admission-control flow is a plain :class:`Sink`
whose accounting record belongs to the probing agent.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator


class Sink:
    """Terminal receiver that updates flow accounting.

    Parameters
    ----------
    sim:
        Event engine (used for latency timestamps).
    record_latency:
        When True, keeps running sums for mean-latency reporting.
    on_receive:
        Optional callable invoked with each delivered packet *after*
        accounting — TCP receivers hook this to generate ACKs.
    """

    __slots__ = ("sim", "record_latency", "on_receive", "latency_sum",
                 "latency_count", "latency_max")

    def __init__(
        self,
        sim: Simulator,
        record_latency: bool = False,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.sim = sim
        self.record_latency = record_latency
        self.on_receive = on_receive
        self.latency_sum = 0.0
        self.latency_count = 0
        self.latency_max = 0.0

    def receive(self, pkt: Packet) -> None:
        """Account a delivered packet (and its ECN mark) to its flow."""
        flow = pkt.flow
        flow.delivered += 1
        flow.bytes_delivered += pkt.size
        if pkt.ecn:
            flow.marked += 1
            hook = flow.mark_hook
            if hook is not None:
                hook()
        if self.record_latency:
            latency = self.sim.now - pkt.created
            self.latency_sum += latency
            self.latency_count += 1
            if latency > self.latency_max:
                self.latency_max = latency
        callback = self.on_receive
        if callback is not None:
            # A receiver callback (TCP) may keep the packet; it owns the
            # release decision, so the packet is not released here.
            callback(pkt)
        else:
            pkt.release()

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end delay of delivered packets (0 when none)."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count
