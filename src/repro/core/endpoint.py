"""The endpoint agent: probe, decide, then send.

One :class:`EndpointAgent` shepherds one flow through the endpoint
admission control state machine:

``PROBING`` — a constant-rate probe stream at the flow's token rate ``r``
(slow-start begins at ``r/16`` and doubles every interval), sent at the
design's probe priority, while the receiver-side accounting counts drops
and ECN marks;

``DECIDING`` — after the probe (plus a short settle time for in-flight
packets) the measured congestion fraction is compared against ``epsilon``;

``DATA`` — an admitted flow is handed to the controller's data phase
(:meth:`~repro.core.controller.ControllerBase._start_data`), which runs its
real traffic source for its exponential lifetime; a rejected flow simply
ends (the paper's "rejected flows do not retry").

Early termination follows the paper exactly: simple probing aborts as soon
as the observed losses guarantee the final fraction will exceed epsilon
("once 51 packets are dropped the probing is halted"), early-reject and
slow-start check the loss fraction of each interval at its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.design import (
    PROBE_INTERVALS,
    CongestionSignal,
    EndpointDesign,
    ProbeShape,
    ProbingScheme,
)
from repro.net.link import OutputPort
from repro.net.packet import PROBE, FlowAccounting, Receiver
from repro.sim.engine import EventHandle, Simulator, TraceSink
from repro.traffic.base import Source
from repro.traffic.cbr import ConstantRateSource
from repro.traffic.flowgen import FlowRequest
from repro.units import BITS_PER_BYTE


@dataclass
class FlowOutcome:
    """The record a flow leaves behind.

    ``data`` is the accounting object of the data phase (None when the flow
    was rejected); ``end_time`` is None while the data phase is still
    running.  ``timed_out`` marks flows that gave up without a verdict —
    the probe deadline expired past the retry budget, or the renege
    deadline fired; such flows count as blocked.  ``retries`` is the
    number of re-probe attempts made; ``probe`` covers the final attempt.
    ``rate_bps`` is the flow's declared token rate — the admitted-load
    contribution the controller's live-load accounting tracks.
    """

    flow_id: int
    label: str
    arrival_time: float
    epsilon: float
    rate_bps: float = 0.0
    admitted: bool = False
    decision_time: float = math.nan
    probe: Dict[str, int] = field(default_factory=dict)
    probe_fraction: float = math.nan
    data: Optional[FlowAccounting] = None
    end_time: Optional[float] = None
    timed_out: bool = False
    retries: int = 0

    @property
    def completed(self) -> bool:
        """True once the data phase ended (or the flow was rejected)."""
        return self.end_time is not None or not self.admitted


class EndpointAgent:
    """Drives one flow through probe → decision, then hands it on.

    A rejected flow's outcome goes to ``on_reject``; an admitted flow goes
    to ``start_data(request, route, outcome)``, which starts its data
    phase and records the decision.
    """

    def __init__(
        self,
        sim: Simulator,
        request: FlowRequest,
        design: EndpointDesign,
        route: List[OutputPort],
        sink: Receiver,
        on_reject: Callable[[FlowOutcome], None],
        start_data: Callable[[FlowRequest, List[OutputPort], FlowOutcome], None],
        trace: Optional[TraceSink] = None,
    ) -> None:
        self.sim = sim
        self.request = request
        self.design = design
        self.route = route
        self.sink = sink
        self.on_reject = on_reject
        self.start_data = start_data
        self.trace = trace

        cls_eps = request.cls.epsilon
        self.epsilon = design.epsilon if cls_eps is None else cls_eps

        spec = request.spec
        self.outcome = FlowOutcome(
            flow_id=request.flow_id,
            label=request.label,
            arrival_time=request.arrival_time,
            epsilon=self.epsilon,
            rate_bps=spec.token_rate_bps,
        )

        # Probe plan: per-interval rates and total planned packet count.
        self._interval_len = design.probe_duration / PROBE_INTERVALS
        if design.probing is ProbingScheme.SLOW_START:
            self._rates = [
                spec.token_rate_bps / 2 ** (PROBE_INTERVALS - 1 - k)
                for k in range(PROBE_INTERVALS)
            ]
        else:
            self._rates = [spec.token_rate_bps] * PROBE_INTERVALS
        if design.probe_shape is ProbeShape.EFFECTIVE_RATE:
            # Probe at the bucket-aware effective peak rate r + b/T.
            from repro.traffic.burst import effective_probe_rate

            factor = effective_probe_rate(
                spec.token_rate_bps, spec.token_bucket_bytes,
                design.probe_duration,
            ) / spec.token_rate_bps
            self._rates = [rate * factor for rate in self._rates]
        packet_bits = spec.packet_bytes * BITS_PER_BYTE
        self._planned_packets = sum(
            int(rate * self._interval_len / packet_bits) for rate in self._rates
        )

        self._decided = False
        self._checkpoint: Optional[EventHandle] = None
        self._watchdog: Optional[EventHandle] = None
        self._renege_handle: Optional[EventHandle] = None
        self._attempt = 0
        self._watch_feedback = 0

        # Simple probing aborts once the loss budget is exhausted: more than
        # floor(eps * planned) congested packets can no longer average out.
        if design.probing is ProbingScheme.SIMPLE and design.early_abort:
            self._abort_budget: Optional[int] = int(
                math.floor(self.epsilon * self._planned_packets)
            )
        else:
            self._abort_budget = None

        self._setup_attempt()

    def _setup_attempt(self) -> None:
        """Fresh probe accounting and probe source for one (re-)probe attempt.

        Every attempt starts from a clean slate — counters of a failed
        attempt must not leak into the next decision — so the accounting
        object, the probe source, and the interval bookkeeping are all
        rebuilt here.  Called from ``__init__`` and from :meth:`_retry`.
        """
        design = self.design
        spec = self.request.spec
        self.probe_flow = FlowAccounting(self.request.flow_id)
        if design.probe_shape is ProbeShape.BURSTY:
            from repro.traffic.burst import BurstProbeSource

            self._probe_source: Source = BurstProbeSource(
                self.sim, self.route, self.sink, self.probe_flow,
                self._rates[0], spec.token_bucket_bytes, spec.packet_bytes,
                kind=PROBE, prio=design.probe_prio,
            )
        else:
            self._probe_source = ConstantRateSource(
                self.sim, self.route, self.sink, self.probe_flow,
                self._rates[0], spec.packet_bytes,
                kind=PROBE, prio=design.probe_prio,
            )
        self._interval_index = 0
        self._interval_base_sent = 0
        self._interval_base_bad = 0
        self._watch_feedback = 0
        if self._abort_budget is not None:
            self.probe_flow.drop_hook = self._check_budget
            if design.signal is CongestionSignal.MARK:
                self.probe_flow.mark_hook = self._check_budget

    # -- congestion bookkeeping ---------------------------------------------

    def _bad_count(self) -> int:
        """Congestion events so far: drops, plus marks for marking designs."""
        flow = self.probe_flow
        if self.design.signal is CongestionSignal.MARK:
            return flow.dropped + flow.marked
        return flow.dropped

    def _check_budget(self) -> None:
        if self._decided or self._abort_budget is None:
            return
        if self._bad_count() > self._abort_budget:
            self._reject()

    # -- lifecycle ------------------------------------------------------------

    def begin(self) -> None:
        """Start probing (called once, at flow arrival)."""
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="start",
                    flow=self.request.flow_id, label=self.request.label,
                    rate_bps=self._rates[0], epsilon=self.epsilon)
        renege = self.design.renege_time
        if renege is not None:
            self._renege_handle = self.sim.schedule(renege, self._renege)
        self._start_attempt()

    def _start_attempt(self) -> None:
        self._probe_source.start()
        self._checkpoint = self.sim.schedule(self._interval_len, self._interval_end)
        timeout = self.design.probe_timeout
        if timeout is not None:
            self._watchdog = self.sim.schedule(timeout, self._watchdog_tick)

    # -- graceful degradation (probe deadline, retry, renege) -----------------

    def _feedback_count(self) -> int:
        """Evidence the probe stream is reaching the network at all.

        Deliveries, observed drops, and marks all count — a congested but
        live path produces feedback; only a blackhole produces none.
        """
        flow = self.probe_flow
        return flow.delivered + flow.dropped + flow.marked

    def _watchdog_tick(self) -> None:
        timeout = self.design.probe_timeout
        if self._decided or timeout is None:
            return
        feedback = self._feedback_count()
        if feedback > self._watch_feedback:
            self._watch_feedback = feedback
            self._watchdog = self.sim.schedule(timeout, self._watchdog_tick)
            return
        self._attempt_failed()

    def _attempt_failed(self) -> None:
        """A full deadline passed with no feedback: back off or give up."""
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="stall",
                    flow=self.request.flow_id, attempt=self._attempt,
                    feedback=self._watch_feedback)
        self._probe_source.stop()
        if self._checkpoint is not None:
            self._checkpoint.cancel()
            self._checkpoint = None
        self._watchdog = None
        if self._attempt >= self.design.probe_retries:
            self._give_up()
            return
        self._attempt += 1
        self.outcome.retries = self._attempt
        backoff = self.design.retry_backoff * (2.0 ** (self._attempt - 1))
        # Un-cancellable by design: _retry guards on _decided, so a renege
        # during the backoff wait turns it into a no-op.
        self.sim.schedule(backoff, self._retry)

    def _retry(self) -> None:
        if self._decided:
            return
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="retry",
                    flow=self.request.flow_id, attempt=self._attempt)
        self._setup_attempt()
        self._start_attempt()

    def _give_up(self) -> None:
        self.outcome.timed_out = True
        self._reject()

    def _renege(self) -> None:
        """Hard deadline from arrival: the user walks away."""
        if self._decided:
            return
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="renege",
                    flow=self.request.flow_id, attempt=self._attempt)
        self._renege_handle = None
        self.outcome.timed_out = True
        self._reject()

    def _interval_end(self) -> None:
        if self._decided:
            return
        design = self.design
        flow = self.probe_flow
        sent = flow.sent - self._interval_base_sent
        bad = self._bad_count() - self._interval_base_bad
        if design.probing in (ProbingScheme.EARLY_REJECT, ProbingScheme.SLOW_START):
            fraction = bad / sent if sent else 0.0
            if fraction > self.epsilon:
                self._reject()
                return
        self._interval_base_sent = flow.sent
        self._interval_base_bad = self._bad_count()
        self._interval_index += 1
        if self._interval_index >= PROBE_INTERVALS:
            self._probe_source.stop()
            self._checkpoint = self.sim.schedule(design.settle_time, self._final_decision)
            return
        if design.probing is ProbingScheme.SLOW_START:
            self._probe_source.set_rate(self._rates[self._interval_index])
        self._checkpoint = self.sim.schedule(self._interval_len, self._interval_end)

    def _final_decision(self) -> None:
        if self._decided:
            return
        flow = self.probe_flow
        fraction = self._bad_count() / flow.sent if flow.sent else 0.0
        if self.design.probing is ProbingScheme.SIMPLE:
            admitted = fraction <= self.epsilon
        else:
            # Interval schemes already rejected bad intervals; the final
            # interval was checked at its boundary, so surviving means admit.
            admitted = True
        if admitted:
            self._admit(fraction)
        else:
            self._reject()

    def _settle(self) -> None:
        self._decided = True
        self._probe_source.stop()
        if self._checkpoint is not None:
            self._checkpoint.cancel()
            self._checkpoint = None
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._renege_handle is not None:
            self._renege_handle.cancel()
            self._renege_handle = None
        flow = self.probe_flow
        flow.drop_hook = None
        flow.mark_hook = None
        self.outcome.decision_time = self.sim.now
        self.outcome.probe = flow.snapshot()
        self.outcome.probe_fraction = (
            self._bad_count() / flow.sent if flow.sent else 0.0
        )

    def _reject(self) -> None:
        self._settle()
        outcome = self.outcome
        outcome.admitted = False
        outcome.end_time = self.sim.now
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="reject",
                    flow=outcome.flow_id, fraction=outcome.probe_fraction,
                    sent=outcome.probe.get("sent", 0),
                    retries=outcome.retries, timed_out=outcome.timed_out)
        self.on_reject(outcome)

    def _admit(self, fraction: float) -> None:
        self._settle()
        outcome = self.outcome
        outcome.admitted = True
        tr = self.trace
        if tr is not None:
            tr.emit("probe", self.sim.now, event="admit",
                    flow=outcome.flow_id, fraction=fraction,
                    sent=outcome.probe.get("sent", 0),
                    retries=outcome.retries)
        self.start_data(self.request, self.route, outcome)
