"""Packet representation and per-flow accounting.

Packets are created in the inner loop of every simulation, so the class is a
``__slots__`` record with no behavior beyond construction.  Accounting lives
in :class:`FlowAccounting` objects that packets point at: a queue that drops
a packet increments counters on the packet's accounting record directly,
which is both faster and simpler than routing loss notifications back
through the topology.

A packet carries its *path*, the tuple of callables it visits in order
(``route[0].send, ..., route[-1].send, sink.receive``; see
:func:`packet_path`), so a port hands a packet on with one tuple index.
It also carries its *home*, the free list it returns to when it dies:
delivered, dropped or blackholed, the datapath calls
:meth:`Packet.release` and the packet goes back to the list that made it
(DESIGN.md §11).  A :class:`~repro.traffic.base.Source` owns its free
list and stamps its packets' constant fields once, at construction;
:meth:`FlowAccounting.acquire` keeps one per flow for callers that build
packets of varying shape, and reinitializes every field.  A packet with
no home (a TCP segment) is left to the garbage collector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Tuple

if TYPE_CHECKING:
    from repro.net.link import OutputPort

# Packet kinds.  Plain ints (not enum) — these are compared in the hot path.
DATA = 0        #: admission-controlled data traffic
PROBE = 1       #: admission-control probe traffic
BEST_EFFORT = 2  #: legacy best-effort traffic (TCP segments in Figure 11)
ACK = 3         #: TCP acknowledgements

KIND_NAMES = {DATA: "data", PROBE: "probe", BEST_EFFORT: "best-effort", ACK: "ack"}

# Priority levels inside the admission-controlled class.  Lower value is
# served first.  Out-of-band designs place probes at PRIO_PROBE.
PRIO_DATA = 0
PRIO_PROBE = 1


class Receiver(Protocol):
    """Anything that can terminate a packet route (see :class:`Packet`)."""

    def receive(self, pkt: "Packet") -> None:
        """Accept one delivered packet."""


#: The callables a packet visits in order: each port's ``send``, then the
#: sink's ``receive``.
Path = Tuple[Callable[["Packet"], None], ...]


def packet_path(route: List["OutputPort"], sink: Receiver) -> Path:
    """The path of a packet that crosses ``route`` and ends at ``sink``."""
    return tuple([port.send for port in route] + [sink.receive])


class FlowAccounting:
    """Counters shared by every packet of one flow (one phase of one flow).

    An endpoint agent typically uses two of these per flow: one for the
    probe phase and one for the data phase, so probe losses never pollute
    the data-loss statistics.

    Attributes
    ----------
    sent, delivered, dropped, marked:
        Packet counts.  ``marked`` counts delivered packets that carried an
        ECN mark.
    lost:
        Packets blackholed by a failed link — *silent* loss that produces
        no feedback of any kind (unlike ``dropped``, which models losses
        the receiver-side accounting can observe).  Probing endpoints
        cannot see this counter; their probe deadline is the only defense.
    drop_hook:
        Optional callable invoked (with no arguments) each time one of this
        flow's packets is dropped — used for the paper's probe early-abort.
    mark_hook:
        Same, for ECN marks observed at enqueue time.
    """

    __slots__ = ("flow_id", "sent", "delivered", "dropped", "marked", "lost",
                 "bytes_sent", "bytes_delivered", "drop_hook", "mark_hook",
                 "_pool", "_route", "_sink", "_path")

    def __init__(self, flow_id: int = -1) -> None:
        self.flow_id = flow_id
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.marked = 0
        self.lost = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.drop_hook: Optional[Callable[[], None]] = None
        self.mark_hook: Optional[Callable[[], None]] = None
        self._pool: List["Packet"] = []
        # The path of the last (route, sink) acquire was given.
        self._route: Optional[List["OutputPort"]] = None
        self._sink: Optional[Receiver] = None
        self._path: Path = ()

    # -- packet pooling ---------------------------------------------------

    def acquire(
        self,
        size: int,
        kind: int,
        route: List["OutputPort"],
        sink: "Receiver",
        prio: int = PRIO_DATA,
        seq: int = 0,
        created: float = 0.0,
        payload: Any = None,
    ) -> "Packet":
        """A packet owned by this flow, recycled from its free list if possible.

        Every field is (re)assigned here, so a recycled packet is
        indistinguishable from a freshly constructed one — nothing from
        its previous life (ECN bit, hop index, payload) survives.  The
        path is rebuilt only when ``route`` or ``sink`` is not the object
        of the previous call.
        """
        if route is not self._route or sink is not self._sink:
            self._route = route
            self._sink = sink
            self._path = packet_path(route, sink)
        pool = self._pool
        if pool:
            pkt = pool.pop()
            pkt.pooled = False
            pkt.size = size
            pkt.kind = kind
            pkt.prio = prio
            pkt.ecn = False
            pkt.path = self._path
            pkt.hop = 0
            pkt.seq = seq
            pkt.created = created
            pkt.payload = payload
            return pkt
        return Packet(size, kind, self, self._path, prio, seq, created,
                      payload, pool)

    # -- counter updates --------------------------------------------------

    def note_dropped(self) -> None:
        """Record one observable drop and fire the drop hook (if any)."""
        self.dropped += 1
        hook = self.drop_hook
        if hook is not None:
            hook()

    def note_lost(self) -> None:
        """Record one silent blackhole loss; deliberately hook-free."""
        self.lost += 1

    # -- derived fractions ------------------------------------------------

    @property
    def loss_fraction(self) -> float:
        """Dropped / sent; zero when nothing was sent."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent

    @property
    def congestion_fraction(self) -> float:
        """(Dropped + marked) / sent — the 'marking percentage' of the paper.

        A marked packet was delivered but signalled congestion; a dropped
        packet is the strongest congestion signal of all, so both count.
        """
        if self.sent == 0:
            return 0.0
        return (self.dropped + self.marked) / self.sent

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the counters (for reports and tests)."""
        return {
            "flow_id": self.flow_id,
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "marked": self.marked,
            "lost": self.lost,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }


class Packet:
    """A packet in flight.

    ``path`` is the tuple of callables the packet visits in order (see
    :func:`packet_path`) and ``hop`` the index of the one it is at.
    ``home`` is the free list :meth:`release` returns the packet to, or
    ``None`` for a packet nobody recycles.  Only the constructor,
    :meth:`FlowAccounting.acquire` and
    :meth:`~repro.traffic.base.Source._emit` assign ``size``, ``kind``,
    ``prio``, ``flow``, ``path`` or ``home``, which is what lets a
    source reuse a packet without resetting them.
    """

    __slots__ = ("size", "kind", "prio", "flow", "ecn", "path", "hop",
                 "seq", "created", "payload", "pooled", "home")

    def __init__(
        self,
        size: int,
        kind: int,
        flow: FlowAccounting,
        path: Path,
        prio: int = PRIO_DATA,
        seq: int = 0,
        created: float = 0.0,
        payload: Any = None,
        home: Optional[List["Packet"]] = None,
    ) -> None:
        self.size = size
        self.kind = kind
        self.prio = prio
        self.flow = flow
        self.ecn = False
        self.path = path
        self.hop = 0
        self.seq = seq
        self.created = created
        self.payload = payload
        #: True while the packet is parked in its home free list.
        self.pooled = False
        self.home = home

    def release(self) -> None:
        """Return this dead packet to its home free list.

        A packet without a home, or already parked, is left alone (double
        release is harmless).  The payload reference is dropped at once,
        so a parked packet never pins an application object.
        """
        home = self.home
        if home is not None and not self.pooled:
            self.pooled = True
            self.payload = None
            home.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({KIND_NAMES.get(self.kind, self.kind)}, size={self.size}, "
            f"flow={self.flow.flow_id}, seq={self.seq}, hop={self.hop}/"
            f"{len(self.path) - 1}, ecn={self.ecn})"
        )
