"""Trains are behaviour-invisible.

A fixed-interval source (an on-off burst, a CBR probe stream, a bursty
probe's inter-burst gap, a video frame clock) runs as a *train*: one lane
record that the dispatch loop re-arms in place while the callback returns
``True`` (:meth:`Lane.every`).  The engine documents that as identical to
a callback that reschedules itself through :meth:`Lane.call` as its last
statement, so every run here is repeated with ``Lane.every`` replaced by
exactly that reference and must give the same result byte for byte,
event count included.  The cases cover what can end or move a train:
epochs bumped by ON/OFF changes, probe retries, reneges and early aborts;
``set_rate`` re-resolving a probe's lane inside its train (slow-start
probing); link flaps; and the two sources no benchmark workload runs,
burst-shaped probes and the video source.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Any, Callable
from unittest import mock

import pytest

from repro import canonical
from repro.core.design import (
    CongestionSignal, EndpointDesign, ProbeBand, ProbeShape, ProbingScheme,
)
from repro.experiments.figures import multihop_config
from repro.experiments.runner import MbacConfig, ScenarioConfig, run_scenario
from repro.experiments.scenarios import get_scenario
from repro.faults.model import FaultConfig
from repro.sim.engine import Lane
from repro.traffic.burst import BurstProbeSource
from repro.traffic.cbr import ConstantRateSource
from repro.traffic.video import SyntheticVideoSource

# Outages long enough to time probes out (deadline 0.5 s, two retries),
# and flows that renege after 6 s, before a 5-s probe plus retries ends.
_STORM = ScenarioConfig(
    source="EXP1", interarrival=0.1, lifetime_mean=10.0, warmup=2.0,
    duration=10.0, seed=5,
    faults=FaultConfig(flap_every=2.0, flap_downtime=1.0, start=2.0),
)
_SLOW_START_MARK = EndpointDesign(
    CongestionSignal.MARK, ProbeBand.OUT_OF_BAND, ProbingScheme.SLOW_START,
    epsilon=0.05,
)

_CASES = [
    pytest.param(
        _STORM, _SLOW_START_MARK.with_resilience(0.5, 2, 0.25, 6.0),
        ConstantRateSource,
        id="probe-storm",
    ),
    pytest.param(
        # Simple probing aborts a probe once its loss budget is spent.
        _STORM,
        EndpointDesign(
            CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SIMPLE,
            epsilon=0.05,
        ).with_resilience(0.5, 2, 0.25, 6.0),
        ConstantRateSource,
        id="simple-early-abort",
    ),
    pytest.param(
        replace(get_scenario("basic").config(scale=0.004, seed=7),
                interarrival=0.5, warmup=4.0, duration=10.0),
        EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                       ProbingScheme.SLOW_START),
        ConstantRateSource,
        id="basic",
    ),
    pytest.param(
        replace(multihop_config(0.004), warmup=3.0, duration=8.0,
                interarrival=0.5, seed=3),
        MbacConfig(0.9),
        None,
        id="mbac-parking-lot",
    ),
    pytest.param(
        ScenarioConfig(source="EXP1", interarrival=0.3, lifetime_mean=10.0,
                       warmup=2.0, duration=9.0, seed=8),
        replace(_SLOW_START_MARK, probe_shape=ProbeShape.BURSTY),
        BurstProbeSource,
        id="burst-probe",
    ),
    pytest.param(
        replace(get_scenario("video").config(scale=0.004, seed=9),
                interarrival=1.0, warmup=3.0, duration=12.0,
                prefill_fraction=0.5),
        EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                       ProbingScheme.SLOW_START, epsilon=0.05),
        SyntheticVideoSource,
        id="video",
    ),
]


def _reference_every(lane: Lane, fn: Callable[[Any], bool], arg: Any) -> None:
    """A train spelled the old way: a tick that reschedules itself."""
    def tick(arg: Any) -> None:
        if fn(arg) is True:
            lane.call(tick, arg)

    lane.call(tick, arg)


@pytest.mark.parametrize("config,spec,source", _CASES)
def test_trains_and_self_rescheduling_ticks_agree(config, spec, source):
    if source is None:
        trains = run_scenario(config, spec)
    else:
        # The case really runs trains of the source it is named for.
        with mock.patch.object(source, "_on_start", autospec=True,
                               side_effect=source._on_start) as started:
            trains = run_scenario(config, spec)
        assert started.call_count > 0
    assert trains.admitted > 0
    if config.faults is not None:
        assert trains.fault_events > 0
        assert trains.probe_retries > 0 and trains.timed_out > 0
    with mock.patch.object(Lane, "every", _reference_every):
        reference = run_scenario(config, spec)
    assert canonical.dumps(asdict(trains)) == canonical.dumps(asdict(reference))
