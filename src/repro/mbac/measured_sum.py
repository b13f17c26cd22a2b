"""The Measured Sum admission control benchmark.

This is the "traditional IntServ per-hop measurement-based admission
control (MBAC)" the paper compares against (its reference [14]).  Unlike
endpoint admission control it requires signalling: the flow's reservation
request visits every router on the path, each of which checks

    estimate + r  <=  target_utilization * capacity

against its own time-window load measurement, and the flow is admitted only
if every hop accepts.  Decisions are instantaneous — there is no probing
delay — and per-hop requests are serialized by construction, which is
exactly the architectural advantage (and scalability burden) the paper
attributes to router-based admission control.

The ``target_utilization`` knob plays the role epsilon plays for the
endpoint designs: sweeping it traces the MBAC loss-load curve.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.controller import ControllerBase
from repro.core.endpoint import FlowOutcome
from repro.errors import ConfigurationError
from repro.mbac.estimator import TimeWindowEstimator
from repro.net.link import OutputPort
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.flowgen import FlowRequest


def check_target(target_utilization: float) -> None:
    """Reject a target utilization outside (0, 1.5]."""
    if not 0 < target_utilization <= 1.5:
        raise ConfigurationError(
            f"target utilization must be in (0, 1.5], got {target_utilization!r}"
        )


class MeasuredSumController(ControllerBase):
    """Per-hop Measured Sum admission control.

    Parameters
    ----------
    target_utilization:
        The fraction of each link's capacity the algorithm aims to fill
        (the sweep parameter for loss-load curves).
    sample_period, window_samples:
        Estimator parameters, see :class:`TimeWindowEstimator`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        streams: RandomStreams,
        target_utilization: float = 0.9,
        sample_period: float = 0.1,
        window_samples: int = 10,
    ) -> None:
        check_target(target_utilization)
        super().__init__(sim, network, streams)
        self.target_utilization = target_utilization
        self.sample_period = sample_period
        self.window_samples = window_samples
        self._estimators: Dict[OutputPort, TimeWindowEstimator] = {}

    def _estimator(self, port: OutputPort) -> TimeWindowEstimator:
        est = self._estimators.get(port)
        if est is None:
            est = TimeWindowEstimator(
                self.sim, port, self.sample_period, self.window_samples,
                trace=self.trace,
            )
            est.start()
            self._estimators[port] = est
        return est

    def estimators(self) -> List[TimeWindowEstimator]:
        """The live per-port estimators, ordered by port name.

        Deterministic ordering for observability harvesting
        (:mod:`repro.obs.collect`); estimators are created lazily on a
        port's first reservation request, so the list grows over a run.
        """
        return sorted(self._estimators.values(), key=lambda e: e.port.name)

    def handle(self, request: FlowRequest) -> None:
        route = self.network.route(request.cls.src, request.cls.dst)
        rate = request.spec.token_rate_bps
        estimators: List[TimeWindowEstimator] = [self._estimator(p) for p in route]
        admitted = all(
            est.estimate_bps + rate <= self.target_utilization * est.port.rate_bps
            for est in estimators
        )
        tr = self.trace
        if tr is not None:
            tr.emit("mbac", self.sim.now, event="decision",
                    flow=request.flow_id, label=request.label,
                    admitted=admitted, rate_bps=rate)
        outcome = FlowOutcome(
            flow_id=request.flow_id,
            label=request.label,
            arrival_time=request.arrival_time,
            epsilon=self.target_utilization,
            rate_bps=rate,
            admitted=admitted,
            decision_time=self.sim.now,
        )
        if not admitted:
            outcome.end_time = self.sim.now
            self._record_decision(outcome)
            return
        for est in estimators:
            est.admit(rate)
        self._start_data(request, route, outcome)
