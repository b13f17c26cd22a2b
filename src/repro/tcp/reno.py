"""Packet-level TCP Reno (for the legacy-router coexistence study).

Figure 11 of the paper shares a drop-tail FIFO between 20 TCP Reno flows
and admission-controlled traffic.  This module implements the sender and
receiver halves of a simulation-grade Reno:

* slow start and congestion avoidance (cwnd in segments, +1 per ACK below
  ssthresh, +1/cwnd above);
* fast retransmit on three duplicate ACKs and Reno fast recovery (cwnd
  inflation by one segment per further dup ACK, deflation to ssthresh on
  the recovery ACK);
* retransmission timeout with exponential backoff and Jacobson/Karels RTT
  estimation (SRTT/RTTVAR, Karn's rule on retransmitted segments);
* a greedy application: the sender always has data (long-lived FTP, as in
  the paper's scenario).

Deliberate simplifications, standard for this kind of study: sequence
numbers count segments (fixed MSS), the receiver window is infinite, no
delayed ACKs, no SACK.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.net.packet import (
    ACK, BEST_EFFORT, FlowAccounting, Packet, Receiver, packet_path,
)
from repro.sim.engine import EventHandle, Simulator

if TYPE_CHECKING:
    from repro.net.link import OutputPort

#: TCP acknowledgement size on the wire (bytes).
ACK_BYTES = 40

#: Initial retransmission timeout (seconds) before any RTT sample.
INITIAL_RTO = 1.0
MIN_RTO = 0.2
MAX_RTO = 60.0


class TcpReceiver:
    """Cumulative-ACK receiver half.

    Out-of-order segments are buffered (by number) and every arriving
    segment triggers an ACK carrying the next expected sequence number —
    so losses manifest as duplicate ACKs at the sender.
    """

    def __init__(
        self, sim: Simulator, ack_route: List["OutputPort"], ack_sink: Receiver
    ) -> None:
        self.sim = sim
        self.ack_route = ack_route
        self.ack_sink = ack_sink
        self.next_expected = 0
        self._out_of_order: Set[int] = set()
        self.flow = FlowAccounting(-1)
        self.segments_received = 0

    def receive(self, pkt: Packet) -> None:
        """Entry point for arriving data segments (wired via Sink callback)."""
        seq = pkt.payload
        self.segments_received += 1
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self._out_of_order:
                self._out_of_order.discard(self.next_expected)
                self.next_expected += 1
        elif seq > self.next_expected:
            self._out_of_order.add(seq)
        self._send_ack()

    def _send_ack(self) -> None:
        self.flow.sent += 1
        self.flow.bytes_sent += ACK_BYTES
        ack = Packet(
            ACK_BYTES, ACK, self.flow,
            packet_path(self.ack_route, self.ack_sink),
            seq=self.next_expected, created=self.sim.now,
            payload=self.next_expected,
        )
        self.ack_route[0].send(ack)


class TcpRenoSender:
    """Greedy TCP Reno sender.

    Parameters
    ----------
    sim:
        Event engine.
    route:
        Forward path (data direction) as a list of output ports.
    data_sink:
        Sink object terminating the forward path; its ``on_receive`` must be
        wired to the paired :class:`TcpReceiver`.
    mss_bytes:
        Segment size on the wire.
    """

    def __init__(
        self,
        sim: Simulator,
        route: List["OutputPort"],
        data_sink: Receiver,
        mss_bytes: int = 1000,
        initial_ssthresh: float = 64.0,
        flow_id: int = 0,
    ) -> None:
        if mss_bytes <= 0:
            raise ConfigurationError(f"MSS must be positive, got {mss_bytes!r}")
        self.sim = sim
        self.route = route
        self.data_sink = data_sink
        self.mss = mss_bytes
        self.flow = FlowAccounting(flow_id)

        # Congestion state (units: segments).
        self.cwnd = 1.0
        self.ssthresh = initial_ssthresh
        self.snd_una = 0          # lowest unacknowledged sequence number
        self.snd_nxt = 0          # next new sequence number to send
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0          # highest seq outstanding when loss detected

        # RTT estimation (Jacobson/Karels).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._send_times: Dict[int, float] = {}
        self._retransmitted: Set[int] = set()

        #: The pending retransmission deadline; None or dead when idle.
        self._rto_event: Optional[EventHandle] = None
        self.running = False

        # Statistics.
        self.timeouts = 0
        self.fast_retransmits = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (greedy source)."""
        self.running = True
        self._send_window()

    def stop(self) -> None:
        """Halt transmission and cancel the retransmission timer."""
        self.running = False
        self._reset_rto(arm=False)

    # -- sending -----------------------------------------------------------------

    @property
    def flight_size(self) -> int:
        """Segments outstanding in the network."""
        return self.snd_nxt - self.snd_una

    def _send_window(self) -> None:
        while self.running and self.flight_size < int(self.cwnd):
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1

    def _transmit(self, seq: int, retransmission: bool) -> None:
        self.flow.sent += 1
        self.flow.bytes_sent += self.mss
        if retransmission:
            self._retransmitted.add(seq)
            self._send_times.pop(seq, None)
        else:
            self._send_times[seq] = self.sim.now
        # Built from the current route, which may be swapped mid-run.
        pkt = Packet(
            self.mss, BEST_EFFORT, self.flow,
            packet_path(self.route, self.data_sink),
            seq=seq, created=self.sim.now, payload=seq,
        )
        self.route[0].send(pkt)
        if self._rto_event is None or not self._rto_event.alive:
            self._reset_rto()

    # -- ACK processing ------------------------------------------------------------

    def on_ack(self, pkt: Packet) -> None:
        """Entry point for arriving ACKs (wire via the ACK sink callback)."""
        if not self.running:
            return
        ackno = pkt.payload
        if ackno > self.snd_una:
            self._new_ack(ackno)
        elif ackno == self.snd_una:
            self._duplicate_ack()
        self._send_window()

    def _new_ack(self, ackno: int) -> None:
        newly_acked = ackno - self.snd_una
        # RTT sample from the most recent non-retransmitted segment (Karn).
        sample_seq = ackno - 1
        sent_at = self._send_times.pop(sample_seq, None)
        if sent_at is not None and sample_seq not in self._retransmitted:
            self._update_rtt(self.sim.now - sent_at)
        for seq in range(self.snd_una, ackno):
            self._send_times.pop(seq, None)
            self._retransmitted.discard(seq)
        self.snd_una = ackno

        if self.in_recovery:
            if ackno > self.recover:
                # Full recovery: deflate to ssthresh and resume avoidance.
                self.cwnd = self.ssthresh
                self.in_recovery = False
                self.dup_acks = 0
            else:
                # Partial ACK (NewReno-flavored): retransmit the next hole,
                # deflate by the amount acked.
                self.cwnd = max(self.cwnd - newly_acked + 1, 1.0)
                self._transmit(self.snd_una, retransmission=True)
        else:
            self.dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += newly_acked  # slow start
            else:
                self.cwnd += newly_acked / self.cwnd  # congestion avoidance

        self._reset_rto(arm=self.flight_size > 0)

    def _duplicate_ack(self) -> None:
        if self.in_recovery:
            self.cwnd += 1.0  # inflate per extra dup ACK
            return
        self.dup_acks += 1
        if self.dup_acks == 3:
            self.fast_retransmits += 1
            self.ssthresh = max(self.flight_size / 2.0, 2.0)
            self.recover = self.snd_nxt - 1
            self.in_recovery = True
            self.cwnd = self.ssthresh + 3.0
            self._transmit(self.snd_una, retransmission=True)

    # -- timers & RTT -----------------------------------------------------------

    def _on_timeout(self) -> None:
        if not self.running:
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2.0, MAX_RTO)
        self._transmit(self.snd_una, retransmission=True)
        self._reset_rto()

    def _reset_rto(self, arm: bool = True) -> None:
        """Cancel the pending retransmission deadline and, with ``arm``,
        set a new one ``rto`` seconds from now."""
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule(self.rto, self._on_timeout) if arm else None

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, MIN_RTO), MAX_RTO)
