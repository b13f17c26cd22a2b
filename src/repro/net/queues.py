"""Queueing disciplines for router output ports.

All disciplines share a tiny duck-typed interface used by
:class:`~repro.net.link.OutputPort`:

* ``enqueue(pkt, now) -> bool`` — admit or drop the packet.  Dropping
  updates the packet's flow accounting in place (and fires its drop hook);
  the caller only needs the boolean.
* ``dequeue() -> Packet | None`` — next packet to transmit.
* ``backlog_packets`` — queue occupancy, for tests and introspection.

The paper's prototype designs need exactly two disciplines: a drop-tail
FIFO (in-band designs) and a strict-priority queue with data push-out of
probes (out-of-band designs, and with more data levels the Section 2.1.3
multi-service fix), each optionally wearing a virtual-queue ECN marker.  RED and Fair Queueing are provided for the
architectural ablations of Section 2.1 (stolen bandwidth) and for the
drop-tail-vs-RED footnote.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.vq import VirtualQueue
from repro.units import BITS_PER_BYTE


@runtime_checkable
class QueueDiscipline(Protocol):
    """The structural interface every discipline in this module satisfies.

    :class:`~repro.net.link.OutputPort` and the topology builders accept any
    object with this shape, so ablations can plug in new disciplines without
    touching the datapath.
    """

    @property
    def backlog_packets(self) -> int:
        """Current queue occupancy in packets."""
        ...

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Admit or drop ``pkt``; True when the packet was queued."""
        ...

    def dequeue(self) -> Optional[Packet]:
        """Next packet to transmit, or None when empty."""
        ...


def _drop(pkt: Packet) -> None:
    """Record a drop on the packet's flow accounting and fire its hook.

    The packet is dead after this — dropped arrivals are forgotten by the
    caller and push-out victims have already left the queue — so it goes
    back to its home free list.  The release happens *after* the drop
    hook so an early-abort triggered by this very drop still observes the
    packet intact.
    """
    pkt.flow.note_dropped()
    pkt.release()


def _mark(pkt: Packet) -> None:
    """Set the ECN bit; the mark is *counted* at delivery by the sink."""
    pkt.ecn = True


class DropTailFifo:
    """Single FIFO with a hard packet-count limit (the paper's default).

    Parameters
    ----------
    capacity_packets:
        Buffer size in packets (paper: 200).
    marker:
        Optional :class:`VirtualQueue`; every arrival is observed and marked
        when the virtual queue would overflow (in-band marking design).
    """

    __slots__ = ("_queue", "_capacity", "marker", "drops", "enqueued")

    def __init__(self, capacity_packets: int, marker: Optional[VirtualQueue] = None) -> None:
        if capacity_packets <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_packets!r}"
            )
        self._queue: Deque[Packet] = deque()
        self._capacity = capacity_packets
        self.marker = marker
        self.drops = 0
        self.enqueued = 0

    @property
    def backlog_packets(self) -> int:
        """Current queue occupancy in packets."""
        return len(self._queue)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Tail-drop admit: queue ``pkt`` unless the buffer is full."""
        marker = self.marker
        if marker is not None and marker.observe(pkt.size, now):
            _mark(pkt)
        if len(self._queue) >= self._capacity:
            self.drops += 1
            _drop(pkt)
            return False
        self._queue.append(pkt)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Next packet in FIFO order, or None when empty."""
        if self._queue:
            return self._queue.popleft()
        return None


class TwoLevelPriorityQueue:
    """Strict priority of data over probes, one shared buffer.

    The two levels of the name are the two *kinds* of level every instance
    has: of its N = ``levels`` levels, N-1 are data levels (packet ``prio``
    0..N-2, lower served first) over one shared probe level (``prio`` N-1).  The default
    ``levels=2`` is the paper's out-of-band arrangement (Section 3.1):
    probes one strict-priority level below data.  More levels give the
    Section 2.1.3 fix: several admission-controlled data service levels
    whose probes all ride the same bottom level, so admission competition
    is equal while delivered service differs.

    The buffer limit applies to the sum of all levels.  When it is full,
    an arrival pushes out the youngest packet of the lowest non-empty
    level strictly below its own (``pushout=True``); otherwise the arrival
    is dropped.  A packet priority outside ``0..levels-1`` is a
    :class:`~repro.errors.ConfigurationError`.

    For marking designs, each kind of level can carry a virtual queue.
    The data marker observes data-level arrivals only; the probe marker
    observes *every* arrival, because data traffic preempts probes and so
    competes with them for the virtual capacity.
    """

    __slots__ = ("_levels", "_probe", "_capacity", "_occupancy", "data_marker",
                 "probe_marker", "pushout", "drops", "pushouts", "enqueued")

    def __init__(
        self,
        capacity_packets: int,
        data_marker: Optional[VirtualQueue] = None,
        probe_marker: Optional[VirtualQueue] = None,
        pushout: bool = True,
        levels: int = 2,
    ) -> None:
        if levels < 2:
            raise ConfigurationError(
                f"need at least two levels (data + probe), got {levels!r}"
            )
        if capacity_packets <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_packets!r}"
            )
        self._levels: List[Deque[Packet]] = [deque() for __ in range(levels)]
        self._probe = levels - 1
        self._capacity = capacity_packets
        self._occupancy = 0
        self.data_marker = data_marker
        self.probe_marker = probe_marker
        self.pushout = pushout
        self.drops = 0
        self.pushouts = 0
        self.enqueued = 0

    @property
    def levels(self) -> int:
        """Number of service levels, including the shared probe level."""
        return len(self._levels)

    @property
    def probe_level(self) -> int:
        """The shared probe priority (the lowest level)."""
        return self._probe

    @property
    def backlog_packets(self) -> int:
        """Total occupancy across all levels, in packets."""
        return self._occupancy

    def backlog_at(self, prio: int) -> int:
        """Occupancy of one priority level (tests and introspection)."""
        return len(self._levels[prio])

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Admit ``pkt`` to its level, pushing out a lower one when full."""
        prio = pkt.prio
        probe = self._probe
        if prio == probe:
            marker = self.probe_marker
            if marker is not None and marker.observe(pkt.size, now):
                _mark(pkt)
        elif 0 <= prio < probe:
            marker = self.data_marker
            if marker is not None and marker.observe(pkt.size, now):
                _mark(pkt)
            # Data competes with probes for the probe level's virtual
            # capacity, so the probe marker observes it too (without
            # marking the data packet off that observation).
            if self.probe_marker is not None:
                self.probe_marker.observe(pkt.size, now)
        else:
            raise ConfigurationError(
                f"packet priority {prio!r} outside 0..{probe}"
            )
        levels = self._levels
        if self._occupancy >= self._capacity:
            victim = None
            if self.pushout:
                for level in range(probe, prio, -1):
                    if levels[level]:
                        victim = levels[level].pop()  # youngest of the level
                        break
            self.drops += 1
            if victim is None:
                _drop(pkt)
                return False
            self._occupancy -= 1
            self.pushouts += 1
            _drop(victim)
        levels[prio].append(pkt)
        self._occupancy += 1
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Next packet from the highest-priority non-empty level."""
        for level in self._levels:
            if level:
                self._occupancy -= 1
                return level.popleft()
        return None


class RedFifo:
    """Random Early Detection FIFO (Floyd & Jacobson 1993).

    Provided for the paper's footnote 11 ("dropping behavior ... can be
    either drop-tail or RED; we used drop-tail") — an ablation can check
    that the choice indeed does not change the results materially.

    The implementation follows the classic gentle-less RED: an EWMA of the
    queue length (with idle-time compensation), linear drop probability
    between ``min_th`` and ``max_th``, and the uniform-spacing correction
    ``p / (1 - count * p)``.
    """

    __slots__ = ("_queue", "_capacity", "_min_th", "_max_th", "_max_p",
                 "_weight", "_avg", "_count", "_idle_since", "_rate_bytes",
                 "_rng", "marker", "drops", "enqueued")

    def __init__(
        self,
        capacity_packets: int,
        rate_bps: float,
        rng: np.random.Generator,
        min_th: float = 5.0,
        max_th: float = 50.0,
        max_p: float = 0.02,
        weight: float = 0.002,
        mean_packet_bytes: int = 125,
        marker: Optional[VirtualQueue] = None,
    ) -> None:
        if capacity_packets <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_packets!r}"
            )
        if not 0 <= min_th < max_th:
            raise ConfigurationError(
                f"need 0 <= min_th < max_th, got {min_th!r}, {max_th!r}"
            )
        self._queue: Deque[Packet] = deque()
        self._capacity = capacity_packets
        self._min_th = min_th
        self._max_th = max_th
        self._max_p = max_p
        self._weight = weight
        self._avg = 0.0
        self._count = -1
        self._idle_since: Optional[float] = 0.0
        # Packets the link could have sent during idle time, used to decay
        # the average while the queue is empty.
        self._rate_bytes = rate_bps / BITS_PER_BYTE / mean_packet_bytes
        self._rng = rng
        self.marker = marker
        self.drops = 0
        self.enqueued = 0

    @property
    def backlog_packets(self) -> int:
        """Current (instantaneous) queue occupancy in packets."""
        return len(self._queue)

    @property
    def average_queue(self) -> float:
        """The EWMA queue length RED's drop decisions are based on."""
        return self._avg

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """RED admit: early-drop probabilistically as the EWMA grows."""
        if self.marker is not None and self.marker.observe(pkt.size, now):
            _mark(pkt)
        if self._queue:
            self._avg += self._weight * (len(self._queue) - self._avg)
        else:
            idle = 0.0 if self._idle_since is None else now - self._idle_since
            self._avg *= (1.0 - self._weight) ** max(0.0, idle * self._rate_bytes)
        dropped = False
        if len(self._queue) >= self._capacity:
            dropped = True
        elif self._avg >= self._max_th:
            dropped = True
        elif self._avg > self._min_th:
            base = self._max_p * (self._avg - self._min_th) / (self._max_th - self._min_th)
            self._count += 1
            denom = 1.0 - self._count * base
            prob = base / denom if denom > 0 else 1.0
            if self._rng.random() < prob:
                dropped = True
        if dropped:
            self._count = 0
            self.drops += 1
            _drop(pkt)
            return False
        if self._avg <= self._min_th:
            self._count = -1
        self._queue.append(pkt)
        self.enqueued += 1
        self._idle_since = None
        return True

    def dequeue(self) -> Optional[Packet]:
        """Next packet in FIFO order, or None when empty."""
        if self._queue:
            pkt = self._queue.popleft()
            return pkt
        return None

    def note_idle(self, now: float) -> None:
        """Called by the port when the queue drains (for idle-decay of avg)."""
        self._idle_since = now


class FairQueueing:
    """Per-flow weighted fair queueing (virtual finish times).

    Used only for the Section 2.1.1 "stolen bandwidth" ablation — the paper
    concludes FQ must *not* be used for admission-controlled traffic, and
    this class lets tests demonstrate why.

    Flows are keyed by their accounting object's ``flow_id``.  When the
    shared buffer fills, the packet at the tail of the *longest* flow queue
    is dropped (longest-queue drop preserves FQ's isolation under overload).
    """

    __slots__ = ("_flows", "_finish", "_heap", "_capacity", "_occupancy",
                 "_vtime", "_seq", "weights", "drops", "enqueued")

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_packets!r}"
            )
        # Per-flow FIFO of (finish_tag, packet) pairs.
        self._flows: Dict[int, Deque[Tuple[float, Packet]]] = {}
        self._finish: Dict[int, float] = {}
        self._heap: List[Tuple[float, int, int]] = []  # (head finish tag, seq, flow_id)
        self._capacity = capacity_packets
        self._occupancy = 0
        self._vtime = 0.0
        self._seq = 0
        self.weights: Dict[int, float] = {}
        self.drops = 0
        self.enqueued = 0

    @property
    def backlog_packets(self) -> int:
        """Total occupancy across all per-flow queues, in packets."""
        return self._occupancy

    def _weight(self, flow_id: int) -> float:
        return self.weights.get(flow_id, 1.0)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Admit ``pkt`` to its flow's queue; longest-queue-drop when full."""
        if self._occupancy >= self._capacity:
            # Longest-queue drop: shed from the most backlogged flow so
            # overload cannot erase another flow's fair share.
            victim_id = max(self._flows, key=lambda fid: len(self._flows[fid]))
            victim_queue = self._flows[victim_id]
            __, victim = victim_queue.pop()
            self._occupancy -= 1
            self.drops += 1
            _drop(victim)
            # The victim flow's next finish tag shrinks back accordingly.
            self._finish[victim_id] -= victim.size / self._weight(victim_id)
        flow_id = pkt.flow.flow_id
        queue = self._flows.get(flow_id)
        if queue is None:
            queue = deque()
            self._flows[flow_id] = queue
        start = max(self._vtime, self._finish.get(flow_id, 0.0))
        finish = start + pkt.size / self._weight(flow_id)
        self._finish[flow_id] = finish
        was_empty = not queue
        queue.append((finish, pkt))
        self._occupancy += 1
        self.enqueued += 1
        if was_empty:
            self._seq += 1
            heapq.heappush(self._heap, (finish, self._seq, flow_id))
        return True

    def dequeue(self) -> Optional[Packet]:
        """Next packet in virtual-finish-time (WFQ) order."""
        while self._heap:
            finish, __, flow_id = heapq.heappop(self._heap)
            queue = self._flows.get(flow_id)
            if not queue or queue[0][0] != finish:
                # Stale heap entry (the head changed due to a tail drop or
                # was already served); reinsert the true head if any.
                if queue:
                    self._seq += 1
                    heapq.heappush(self._heap, (queue[0][0], self._seq, flow_id))
                continue
            tag, pkt = queue.popleft()
            self._occupancy -= 1
            if tag > self._vtime:
                self._vtime = tag
            if queue:
                self._seq += 1
                heapq.heappush(self._heap, (queue[0][0], self._seq, flow_id))
            return pkt
        return None
