"""Common machinery for packet sources.

A source owns one side of a flow: it fabricates packets with the right
kind/priority, stamps them onto a route, and updates the flow's accounting
record at send time.  Sources are started and stopped by whoever manages
the flow's lifecycle (an endpoint agent, an experiment runner, a test).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, FlowAccounting, Packet, Receiver
from repro.sim.engine import EventHandle, Simulator


class Source:
    """Base class: packet fabrication plus start/stop bookkeeping.

    Subclasses implement the emission schedule and call :meth:`_emit` for
    every packet.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List[OutputPort],
        sink: Receiver,
        flow: FlowAccounting,
        packet_bytes: int,
        kind: int = DATA,
        prio: int = PRIO_DATA,
    ) -> None:
        if packet_bytes <= 0:
            raise ConfigurationError(
                f"packet size must be positive, got {packet_bytes!r}"
            )
        if not route:
            raise ConfigurationError("source needs a non-empty route")
        self.sim = sim
        self.route = route
        self.sink = sink
        self.flow = flow
        self.packet_bytes = packet_bytes
        self.kind = kind
        self.prio = prio
        self.running = False
        self._seq = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin emitting.  Subclasses extend this; call super().start()."""
        self.running = True

    def stop(self) -> None:
        """Stop emitting.  Safe to call when already stopped."""
        self.running = False

    # -- emission -------------------------------------------------------------

    def _emit(self, size: Optional[int] = None) -> Packet:
        """Send one packet of ``size`` bytes (default: ``packet_bytes``).

        Packets come from the flow's free list (see
        :meth:`~repro.net.packet.FlowAccounting.acquire`): a steady source
        cycles a handful of packet objects instead of allocating one per
        transmission.
        """
        nbytes = self.packet_bytes if size is None else size
        flow = self.flow
        flow.sent += 1
        flow.bytes_sent += nbytes
        self._seq += 1
        pkt = flow.acquire(
            nbytes, self.kind, self.route, self.sink, self.prio, self._seq,
            self.sim.now,
        )
        self.route[0].send(pkt)
        return pkt


def cancel(handle: Optional[EventHandle]) -> None:
    """Cancel an event handle if it is set; tolerate None."""
    if handle is not None:
        handle.cancel()
