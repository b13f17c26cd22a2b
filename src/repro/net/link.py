"""Output ports: the serializing half of a link.

An :class:`OutputPort` couples a queueing discipline to a transmitter of a
given rate and a propagation delay.  It is the object that routes are made
of: a packet's route is the ordered list of output ports it must traverse.

The paper's methodology (Section 3.2) simulates the admission-controlled
class "as being serviced by a queue running at the speed of its bandwidth
limit"; an OutputPort whose rate is the AC allocated share implements
exactly that.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.errors import ConfigurationError
from repro.net.packet import BEST_EFFORT, DATA, PROBE, Packet
from repro.net.queues import QueueDiscipline
from repro.sim.engine import Lane, Simulator, TraceSink
from repro.units import BITS_PER_BYTE


class LossModel(Protocol):
    """Per-packet wire-loss process (see :mod:`repro.faults.model`).

    Structural interface only, so :mod:`repro.net` never imports the
    faults package: anything with a ``should_drop()`` can be attached to
    a port's :attr:`OutputPort.loss_model`.
    """

    def should_drop(self) -> bool:
        """Decide the fate of one arriving packet."""
        ...


_COUNTERS = ("data_bytes", "probe_bytes", "be_bytes", "other_bytes",
             "data_packets", "probe_packets", "arrived_data_bytes",
             "arrived_probe_bytes")


class PortStats:
    """Byte/packet counters for one port over ``[since, now]``.

    A port's live counters run from t = 0 and are monotone for the life
    of the run, so anything may difference them.  Warm-up discarding is a
    remembered value, never a reset: :meth:`mark` snapshots the counters
    and :meth:`window` returns the detached difference.
    """

    __slots__ = _COUNTERS + ("since", "_base")

    def __init__(self, since: float = 0.0) -> None:
        self.data_bytes = 0
        self.probe_bytes = 0
        self.be_bytes = 0
        self.other_bytes = 0
        self.data_packets = 0
        self.probe_packets = 0
        self.arrived_data_bytes = 0
        self.arrived_probe_bytes = 0
        self.since = since
        self._base: Optional[PortStats] = None

    def mark(self, now: float) -> None:
        """Start the measurement window at ``now``; no counter moves."""
        self._base = base = PortStats(now)
        for name in _COUNTERS:
            setattr(base, name, getattr(self, name))

    def window(self) -> "PortStats":
        """Detached counters since the last :meth:`mark` (t = 0 if none)."""
        base = self._base if self._base is not None else PortStats()
        out = PortStats(base.since)
        for name in _COUNTERS:
            setattr(out, name, getattr(self, name) - getattr(base, name))
        return out

    def utilization(self, rate_bps: float, now: float, include_probes: bool = False) -> float:
        """Fraction of the port's capacity consumed since ``since``.

        Following the paper, probe bytes are excluded by default: "we do not
        include probe traffic in our utilization figures".
        """
        elapsed = now - self.since
        if elapsed <= 0:
            return 0.0
        useful = self.data_bytes + (self.probe_bytes if include_probes else 0)
        return useful * BITS_PER_BYTE / (rate_bps * elapsed)


class OutputPort:
    """A transmitter with a queueing discipline and a propagation delay.

    Parameters
    ----------
    sim:
        The event engine.
    rate_bps:
        Serialization rate.
    qdisc:
        Any object with the queue-discipline interface of
        :mod:`repro.net.queues`.
    prop_delay:
        One-way propagation delay added after serialization.
    name:
        Label used in reprs and error messages.
    """

    __slots__ = ("sim", "rate_bps", "qdisc", "prop_delay", "name", "busy",
                 "stats", "_tx_per_byte", "enabled", "capacity_factor",
                 "loss_model", "fault_drops", "trace", "tx_trace", "_wire",
                 "_idle_hook")

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        qdisc: QueueDiscipline,
        prop_delay: float = 0.0,
        name: str = "port",
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"link rate must be positive, got {rate_bps!r}")
        if prop_delay < 0:
            raise ConfigurationError(
                f"propagation delay must be non-negative, got {prop_delay!r}"
            )
        self.sim = sim
        self.rate_bps = rate_bps
        self.qdisc = qdisc
        # A virtual queue is told when the transmitter idles (see _tx_done).
        self._idle_hook: Optional[Callable[[float], None]] = getattr(
            qdisc, "note_idle", None
        )
        self.prop_delay = prop_delay
        self.name = name
        self.busy = False
        self.stats = PortStats()
        # Seconds to serialize one byte; multiplied per packet in the hot path.
        self._tx_per_byte = BITS_PER_BYTE / rate_bps
        # The propagation delay never changes, so arrivals leave the wire
        # in the order they entered it: a constant-delay lane, shared with
        # every port of the same delay.  A zero-delay hop has no wire.
        self._wire: Optional[Lane] = sim.lane(prop_delay) if prop_delay > 0 else None
        # Fault-injection state (repro.faults): a disabled port blackholes
        # traffic, a capacity factor < 1 slows serialization, and an
        # attached loss model drops arrivals on the wire.
        self.enabled = True
        self.capacity_factor = 1.0
        self.loss_model: Optional[LossModel] = None
        self.fault_drops = 0
        # Optional structural trace sink (repro.obs); ``None`` costs one
        # attribute check on the paths that would emit, nothing elsewhere.
        self.trace: Optional[TraceSink] = None
        # Per-packet ``tx`` records: set only if the recorder keeps them.
        self.tx_trace: Optional[TraceSink] = None

    # -- datapath ---------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        """Offer a packet to this port (called by sources and upstream ports)."""
        if not self.enabled:
            # Down link: the packet vanishes with no feedback to anyone.
            self.fault_drops += 1
            tr = self.trace
            if tr is not None:
                tr.emit("port", self.sim.now, event="blackhole",
                        port=self.name, kind=pkt.kind, flow=pkt.flow.flow_id)
            pkt.flow.note_lost()
            pkt.release()
            return
        model = self.loss_model
        if model is not None and model.should_drop():
            # Wire loss during a bursty-loss episode: observable (the
            # receiver-side accounting infers it), unlike a blackhole.
            self.fault_drops += 1
            tr = self.trace
            if tr is not None:
                tr.emit("port", self.sim.now, event="wire-loss",
                        port=self.name, kind=pkt.kind, flow=pkt.flow.flow_id)
            pkt.flow.note_dropped()
            pkt.release()
            return
        stats = self.stats
        kind = pkt.kind
        if kind == DATA:
            stats.arrived_data_bytes += pkt.size
        elif kind == PROBE:
            stats.arrived_probe_bytes += pkt.size
        if self.qdisc.enqueue(pkt, self.sim.now):
            if not self.busy:
                self._start_next()
        else:
            tr = self.trace
            if tr is not None:
                tr.emit("port", self.sim.now, event="queue-drop",
                        port=self.name, kind=kind, flow=pkt.flow.flow_id)

    def _start_next(self) -> None:
        # Starts a busy period (``send`` to an idle port, ``set_enabled(True)``);
        # _tx_done continues it.  Every serialization takes the engine's
        # chain slot: a port's next completion is usually the next event
        # due, so it skips the heap.  An empty queue leaves the port idle
        # and the idle clock alone (``set_enabled(True)`` after an outage).
        pkt = self.qdisc.dequeue()
        if pkt is not None:
            self.busy = True
            self.sim.call_chained(pkt.size * self._tx_per_byte, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        if not self.enabled:
            # The port went down mid-serialization: the packet is lost and
            # the transmitter idles (the flushed queue is empty) until
            # set_enabled(True) restarts it.
            self.fault_drops += 1
            tr = self.trace
            if tr is not None:
                tr.emit("port", self.sim.now, event="blackhole-tx",
                        port=self.name, kind=pkt.kind, flow=pkt.flow.flow_id)
            pkt.flow.note_lost()
            pkt.release()
        else:
            stats = self.stats
            kind = pkt.kind
            if kind == DATA:
                stats.data_bytes += pkt.size
                stats.data_packets += 1
            elif kind == PROBE:
                stats.probe_bytes += pkt.size
                stats.probe_packets += 1
            elif kind == BEST_EFFORT:
                stats.be_bytes += pkt.size
            else:
                stats.other_bytes += pkt.size
            tr = self.tx_trace
            if tr is not None:
                # Per-packet completions are the one genuinely high-rate
                # category; sample it (ObsConfig.sample_every) in real runs.
                tr.emit("tx", self.sim.now, port=self.name, kind=kind,
                        size=pkt.size, flow=pkt.flow.flow_id, seq=pkt.seq)
            # Hand-off: the next step of the packet's path (the next port's
            # ``send`` or the sink's ``receive``) is what fires at the far
            # end of the wire (nothing reads ``pkt.hop`` in between).
            hop = pkt.hop + 1
            pkt.hop = hop
            target = pkt.path[hop]
            wire = self._wire
            if wire is not None:
                wire.call(target, pkt)
            else:
                target(pkt)
        # The busy period goes on here.  Order matters for determinism: the
        # delivery above must see the queue state *before* the next dequeue.
        # The idle hook fires on every busy -> idle transition, and only then.
        pkt = self.qdisc.dequeue()
        if pkt is not None:
            self.sim.call_chained(pkt.size * self._tx_per_byte, self._tx_done, pkt)
            return
        self.busy = False
        idle_hook = self._idle_hook
        if idle_hook is not None:
            idle_hook(self.sim.now)

    # -- fault injection ---------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        """Bring the port down (blackholing) or back up.

        Going down flushes the queue — every buffered packet is counted
        as silently lost — and dooms the in-flight transmission (handled
        at :meth:`_tx_done`).  Coming back up restarts the transmitter if
        it is idle.  A packet whose serialization happens to span a
        down/up cycle shorter than its own transmission time survives;
        sub-packet outages are below this model's resolution.
        """
        if enabled == self.enabled:
            return
        self.enabled = enabled
        if not enabled:
            flushed = 0
            pkt = self.qdisc.dequeue()
            while pkt is not None:
                self.fault_drops += 1
                flushed += 1
                pkt.flow.note_lost()
                pkt.release()
                pkt = self.qdisc.dequeue()
            tr = self.trace
            if tr is not None:
                # One summary record per outage, not one per buffered
                # packet — a deep queue would otherwise flood the trace.
                tr.emit("port", self.sim.now, event="flush",
                        port=self.name, flushed=flushed)
        elif not self.busy:
            self._start_next()

    def set_capacity_factor(self, factor: float) -> None:
        """Temporarily scale the serialization rate (degradation episode).

        ``rate_bps`` keeps its nominal value: utilization and virtual
        queues stay defined against the provisioned capacity, which is
        how an operator would account a degraded link.  Only future
        packet transmissions see the new rate; the in-flight packet's
        completion is already scheduled.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"capacity factor must be in (0, 1], got {factor!r}"
            )
        self.capacity_factor = factor
        self._tx_per_byte = BITS_PER_BYTE / (self.rate_bps * factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutputPort({self.name}, {self.rate_bps / 1e6:.3g} Mbps, "
            f"backlog={self.qdisc.backlog_packets})"
        )
