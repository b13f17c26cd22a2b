"""Common machinery for packet sources.

A source owns one side of a flow: it fabricates packets with the right
kind/priority, stamps them onto a route, and updates the flow's accounting
record at send time.  Every packet of a source has the same size, kind,
priority, flow and path, so the source stamps those once per packet
object and recycles its own dead packets (DESIGN.md §11).  Sources are
started and stopped by whoever manages the flow's lifecycle (an endpoint
agent, an experiment runner, a test).
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import (
    DATA, PRIO_DATA, FlowAccounting, Packet, Receiver, packet_path,
)
from repro.sim.engine import Simulator


class Source:
    """Base class: packet fabrication plus start/stop bookkeeping.

    At construction a source builds the path of its packets
    (:func:`~repro.net.packet.packet_path`; route and sink are fixed for
    the source's life) and an empty free list, which is the ``home`` of
    every packet it makes.  :meth:`_emit` reuses a dead packet from that
    list when there is one, resetting only the fields that differ between
    two packets of one source.  A packet is built only when the list is
    empty, so the list never holds more packets than were alive at once.

    Subclasses implement the emission schedule in :meth:`_on_start` and
    call :meth:`_emit` for every packet.  Every event a subclass schedules
    carries the epoch it was scheduled in; :meth:`start` and :meth:`stop`
    bump the epoch, so a pending event of an earlier epoch fires once,
    sees a different epoch and dies.  The per-packet path needs no
    :class:`~repro.sim.engine.EventHandle` and no cancellation.
    :meth:`_emit` does the epoch guard itself and says whether it sent, so
    a fixed-interval source hands it straight to
    :meth:`~repro.sim.engine.Lane.every` as its train.
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
        self.flow = flow
        self.packet_bytes = packet_bytes
        self.kind = kind
        self.prio = prio
        self.running = False
        self._seq = 0
        self._epoch = 0
        self._path = packet_path(route, sink)
        self._free: List[Packet] = []

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

    def _emit(self, epoch: int) -> bool:
        """Send one packet of ``packet_bytes`` bytes down the path.

        Returns ``False``, sending nothing, if ``epoch`` is stale, and
        ``True`` after sending: a train of these ends with its epoch.
        """
        if epoch != self._epoch:
            return False
        flow = self.flow
        flow.sent += 1
        flow.bytes_sent += self.packet_bytes
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            pkt = free.pop()
            pkt.seq = seq
            pkt.created = self.sim.now
            pkt.hop = 0
            pkt.ecn = False
            pkt.pooled = False
        else:
            pkt = Packet(self.packet_bytes, self.kind, flow, self._path,
                         self.prio, seq, self.sim.now, None, free)
        self._path[0](pkt)
        return True
