"""Admission controllers.

A controller is anything with a ``handle(request)`` method that can be used
as the :class:`~repro.traffic.flowgen.FlowGenerator` callback.  This module
provides the shared bookkeeping base (measurement windows, per-class
aggregates) plus two concrete controllers:

* :class:`EndpointAdmissionControl` — the paper's contribution: every flow
  probes through an :class:`~repro.core.endpoint.EndpointAgent`.
* :class:`NoAdmissionControl` — admits everything instantly; the
  "DiffServ without admission control" strawman used by examples.

The measurement-window machinery implements the paper's warm-up discarding
("data for the first 2000 seconds are discarded"): every counter runs from
t = 0 and never moves backwards; :meth:`ControllerBase.begin_measurement`
at the warm-up boundary remembers their values (decision tallies, per-flow
packet counters, port counters) and aggregation subtracts them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.design import EndpointDesign
from repro.core.endpoint import EndpointAgent, FlowOutcome
from repro.net.link import OutputPort
from repro.net.packet import FlowAccounting
from repro.net.sink import Sink
from repro.net.topology import Network
from repro.sim.engine import Simulator, TraceSink
from repro.sim.rng import RandomStreams
from repro.traffic.flowgen import FlowRequest

_COUNTER_FIELDS = ("sent", "delivered", "dropped", "marked", "lost",
                   "bytes_sent", "bytes_delivered")

#: Per-class decision tallies beyond offered/admitted (see FlowOutcome).
_DECISION_FIELDS = ("timed_out", "retries")


class ClassStats:
    """Aggregated per-class results over the measurement window."""

    __slots__ = ("offered", "admitted") + _DECISION_FIELDS + _COUNTER_FIELDS

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.timed_out = 0
        self.retries = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.marked = 0
        self.lost = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0

    @property
    def blocked(self) -> int:
        """Flows denied admission (offered minus admitted)."""
        return self.offered - self.admitted

    @property
    def blocking_probability(self) -> float:
        """Fraction of decided flows that were rejected."""
        if self.offered == 0:
            return 0.0
        return self.blocked / self.offered

    @property
    def loss_probability(self) -> float:
        """Data-packet loss fraction over the measurement window.

        Includes silent blackhole losses (``lost``): the experimenter is
        omniscient even where the endpoints are not, and a packet lost to
        a failed link degraded the flow exactly like an observed drop.
        """
        if self.sent == 0:
            return 0.0
        return (self.dropped + self.lost) / self.sent

    def add_counters(
        self,
        counters: Mapping[str, int],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Accumulate packet counters, optionally net of a ``baseline``."""
        for name in _COUNTER_FIELDS:
            value = counters[name]
            if baseline is not None:
                value -= baseline[name]
            setattr(self, name, getattr(self, name) + value)

    def merge(self, other: "ClassStats") -> None:
        """Fold another class's decision and packet counters into this one."""
        self.offered += other.offered
        self.admitted += other.admitted
        for name in _DECISION_FIELDS + _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, Any]:
        """All counters and derived probabilities as one plain dict."""
        out: Dict[str, Any] = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        out.update(
            offered=self.offered,
            admitted=self.admitted,
            blocked=self.blocked,
            timed_out=self.timed_out,
            retries=self.retries,
            blocking_probability=self.blocking_probability,
            loss_probability=self.loss_probability,
        )
        return out


class ControllerBase:
    """Outcome recording and measurement-window bookkeeping."""

    def __init__(self, sim: Simulator, network: Network, streams: RandomStreams) -> None:
        self.sim = sim
        self.network = network
        self.sink = Sink(sim)
        self._source_rng = streams.get("sources")
        self.outcomes: List[FlowOutcome] = []
        self._live: Dict[int, FlowOutcome] = {}
        self._baselines: Dict[int, Dict[str, int]] = {}
        # Per-label [offered, admitted, timed_out, retries] since t = 0,
        # and their values at the start of the measurement window.
        self._tally: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self._tally_base: Dict[str, List[int]] = {}
        # Live per-label flow counts and admitted load (sum of token
        # rates), maintained incrementally for cheap periodic sampling.
        self._live_counts: Dict[str, int] = defaultdict(int)
        self._live_load: Dict[str, float] = defaultdict(float)
        #: Optional event-trace sink (repro.obs); the runner installs it
        #: and subclasses hand it to the agents/estimators they build.
        self.trace: Optional[TraceSink] = None

    # -- subclass interface -------------------------------------------------

    def handle(self, request: FlowRequest) -> None:
        """Process one offered flow (FlowGenerator callback)."""
        raise NotImplementedError

    # -- direct admission ----------------------------------------------------

    def force_admit(self, request: FlowRequest) -> FlowOutcome:
        """Admit a flow immediately, bypassing any admission test.

        Used by :class:`NoAdmissionControl` for every flow and by the
        warm-start prefill of the experiment runner (flows assumed to have
        been admitted before the simulation began).
        """
        route = self.network.route(request.cls.src, request.cls.dst)
        outcome = FlowOutcome(
            flow_id=request.flow_id,
            label=request.label,
            arrival_time=request.arrival_time,
            epsilon=1.0,
            rate_bps=request.spec.token_rate_bps,
            admitted=True,
            decision_time=self.sim.now,
        )
        self._start_data(request, route, outcome)
        return outcome

    def _start_data(self, request: FlowRequest, route: List[OutputPort],
                    outcome: FlowOutcome) -> None:
        """Start an admitted flow's data phase, record the decision, and
        schedule the phase's end ``request.lifetime`` from now."""
        data_flow = FlowAccounting(request.flow_id)
        outcome.data = data_flow
        source = request.spec.build(
            self.sim, route, self.sink, data_flow, self._source_rng
        )
        source.start()
        self._record_decision(outcome)

        def finish() -> None:
            source.stop()
            outcome.end_time = self.sim.now
            self._record_complete(outcome)

        self.sim.schedule(request.lifetime, finish)

    # -- recording -------------------------------------------------------------

    def _record_decision(self, outcome: FlowOutcome) -> None:
        self.outcomes.append(outcome)
        counts = self._tally[outcome.label]
        counts[0] += 1
        if outcome.timed_out:
            counts[2] += 1
        counts[3] += outcome.retries
        if outcome.admitted:
            counts[1] += 1
            self._live[outcome.flow_id] = outcome
            self._live_counts[outcome.label] += 1
            self._live_load[outcome.label] += outcome.rate_bps

    def _record_complete(self, outcome: FlowOutcome) -> None:
        if self._live.pop(outcome.flow_id, None) is not None:
            self._live_counts[outcome.label] -= 1
            self._live_load[outcome.label] -= outcome.rate_bps

    # -- measurement window ------------------------------------------------

    def begin_measurement(self) -> None:
        """Start the measurement window (end of warm-up).

        Nothing is zeroed: decision tallies, the packet counters of flows
        still running and every port's counters are remembered here and
        subtracted when read.  Flows already finished are forgotten.
        """
        self._tally_base = {
            label: list(counts) for label, counts in self._tally.items()
        }
        self._baselines = {
            flow_id: outcome.data.snapshot()
            for flow_id, outcome in self._live.items()
            if outcome.data is not None
        }
        self.outcomes = [o for o in self.outcomes if not o.completed]
        now = self.sim.now
        for port in self.network.ports():
            port.stats.mark(now)

    def class_stats(self) -> Dict[str, ClassStats]:
        """Per-class aggregates over the measurement window."""
        result: Dict[str, ClassStats] = defaultdict(ClassStats)
        for label, counts in self._tally.items():
            base = self._tally_base.get(label, (0, 0, 0, 0))
            if counts[0] == base[0]:
                continue  # no decision inside the window
            stats = result[label]
            stats.offered, stats.admitted, stats.timed_out, stats.retries = (
                c - b for c, b in zip(counts, base)
            )
        for outcome in self.outcomes:
            if outcome.data is None:
                continue
            result[outcome.label].add_counters(
                outcome.data.snapshot(), self._baselines.get(outcome.flow_id)
            )
        return dict(result)

    def totals(self) -> ClassStats:
        """All classes merged."""
        merged = ClassStats()
        for stats in self.class_stats().values():
            merged.merge(stats)
        return merged

    @property
    def live_flows(self) -> int:
        """Number of flows currently in their data phase."""
        return len(self._live)

    # -- sampling accessors (repro.obs.timeseries) ---------------------------

    def admission_counts(self) -> Dict[str, Tuple[int, int]]:
        """Cumulative ``(offered, admitted)`` per class, sorted by label.

        Unlike :meth:`class_stats` these counts cover the whole run —
        prefilled flows and warm-up decisions included — so a periodic
        sampler can difference them into per-interval accept/reject rates.
        """
        return {
            label: (self._tally[label][0], self._tally[label][1])
            for label in sorted(self._tally)
        }

    def live_class_load(self, label: str) -> Tuple[int, float]:
        """``(live flow count, admitted load in bps)`` for one class.

        The load is the sum of the live flows' declared token rates —
        the quantity MBAC-style algorithms budget against — maintained
        incrementally so reading it costs two dict lookups.
        """
        return self._live_counts.get(label, 0), self._live_load.get(label, 0.0)


class EndpointAdmissionControl(ControllerBase):
    """Endpoint admission control: probe first, then send.

    Parameters
    ----------
    sim, network:
        Engine and topology.
    design:
        The :class:`~repro.core.design.EndpointDesign` every flow uses.
    streams:
        RNG family; data sources share the ``"sources"`` stream.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        design: EndpointDesign,
        streams: RandomStreams,
    ) -> None:
        super().__init__(sim, network, streams)
        self.design = design

    def handle(self, request: FlowRequest) -> None:
        route = self.network.route(request.cls.src, request.cls.dst)
        agent = EndpointAgent(
            self.sim, request, self.design, route, self.sink,
            self._source_rng, self._record_decision, self._record_complete,
            trace=self.trace,
        )
        agent.begin()


class NoAdmissionControl(ControllerBase):
    """Admit every flow immediately, with no probing.

    This is the unprotected service class the paper's introduction warns
    about: under overload, every admitted flow degrades.
    """

    def handle(self, request: FlowRequest) -> None:
        self.force_admit(request)
