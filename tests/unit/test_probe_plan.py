"""Unit tests for the endpoint agent's probe planning (no event loop)."""

import pytest

from repro.core.design import (
    PROBE_INTERVALS,
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.core.endpoint import EndpointAgent
from repro.net.packet import PRIO_DATA, PRIO_PROBE
from repro.net.sink import Sink
from repro.sim.engine import Simulator
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowRequest
from repro.units import kbps


def make_agent(design, source="EXP1", epsilon=None):
    sim = Simulator()
    spec = get_source_spec(source)
    cls = FlowClass(label=source, spec=spec, epsilon=epsilon)
    request = FlowRequest(flow_id=1, cls=cls, arrival_time=0.0, lifetime=10.0)
    sink = Sink(sim)

    class FakePort:
        def send(self, pkt):
            pass

    return EndpointAgent(sim, request, design, [FakePort()], sink,
                         lambda o: None, lambda request, route, o: None)


def test_slow_start_rates_double_toward_token_rate():
    design = EndpointDesign(probing=ProbingScheme.SLOW_START)
    agent = make_agent(design)
    r = get_source_spec("EXP1").token_rate_bps
    assert agent._rates == [r / 16, r / 8, r / 4, r / 2, r]


def test_simple_probe_rate_is_constant():
    design = EndpointDesign(probing=ProbingScheme.SIMPLE)
    agent = make_agent(design)
    r = get_source_spec("EXP1").token_rate_bps
    assert agent._rates == [r] * PROBE_INTERVALS


def test_planned_packets_simple():
    design = EndpointDesign(probing=ProbingScheme.SIMPLE)
    agent = make_agent(design)
    # 256 kbps / 125 B for 5 s = 1280 packets.
    assert agent._planned_packets == 1280


def test_planned_packets_slow_start():
    design = EndpointDesign(probing=ProbingScheme.SLOW_START)
    agent = make_agent(design)
    assert agent._planned_packets == 496  # 1280 * 1.9375 / 5


def test_abort_budget_matches_paper_example():
    # "if the probe rate is 1000 packets per second, and the acceptance
    # threshold is 1%, then once 51 packets are dropped the probing is
    # halted": budget = floor(0.01 * 5000) = 50, abort at 51.
    design = EndpointDesign(probing=ProbingScheme.SIMPLE, epsilon=0.01)
    agent = make_agent(design, source="STARWARS")  # 800 kbps / 200 B = 500 pps
    assert agent._planned_packets == 2500
    assert agent._abort_budget == 25


def test_no_abort_budget_for_interval_schemes():
    design = EndpointDesign(probing=ProbingScheme.SLOW_START, epsilon=0.01)
    agent = make_agent(design)
    assert agent._abort_budget is None
    assert agent.probe_flow.drop_hook is None


def test_probe_priority_follows_design_band():
    in_band = make_agent(EndpointDesign(band=ProbeBand.IN_BAND))
    out_band = make_agent(EndpointDesign(band=ProbeBand.OUT_OF_BAND))
    assert in_band._probe_source.prio == PRIO_DATA
    assert out_band._probe_source.prio == PRIO_PROBE


def test_class_epsilon_overrides_design_epsilon():
    design = EndpointDesign(epsilon=0.01)
    agent = make_agent(design, epsilon=0.2)
    assert agent.epsilon == 0.2
    assert make_agent(design).epsilon == 0.01


def test_probe_interval_length():
    design = EndpointDesign(probe_duration=25.0)
    agent = make_agent(design)
    assert agent._interval_len == 5.0


def test_mark_signal_counts_marks_in_bad_count():
    design = EndpointDesign(signal=CongestionSignal.MARK,
                            probing=ProbingScheme.SIMPLE, epsilon=0.01)
    agent = make_agent(design)
    agent.probe_flow.dropped = 3
    agent.probe_flow.marked = 4
    assert agent._bad_count() == 7
    drop_design = EndpointDesign(signal=CongestionSignal.DROP,
                                 probing=ProbingScheme.SIMPLE, epsilon=0.01)
    drop_agent = make_agent(drop_design)
    drop_agent.probe_flow.dropped = 3
    drop_agent.probe_flow.marked = 4
    assert drop_agent._bad_count() == 3
