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
from repro.sim.engine import Simulator


class Source:
    """Base class: packet fabrication plus start/stop bookkeeping.

    Subclasses implement the emission schedule in :meth:`_on_start` and
    call :meth:`_emit` for every packet.  Every event a subclass schedules
    carries the epoch it was scheduled in; :meth:`start` and :meth:`stop`
    bump the epoch, so a pending event of an earlier epoch fires once,
    sees a different epoch and dies.  The per-packet path needs no
    :class:`~repro.sim.engine.EventHandle` and no cancellation.
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
        self._epoch = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin emitting: open a new epoch and hand it to :meth:`_on_start`."""
        self.running = True
        self._epoch += 1
        self._on_start(self._epoch)

    def stop(self) -> None:
        """Stop emitting.  Safe to call when already stopped."""
        self.running = False
        self._epoch += 1

    def _on_start(self, epoch: int) -> None:
        """Emit or schedule the first packet of ``epoch`` (subclass hook)."""
        raise NotImplementedError

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
