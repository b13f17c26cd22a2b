"""Unit tests for controllers: measurement windows, aggregates, force-admit."""

import pytest

from repro.core.controller import (
    ClassStats,
    EndpointAdmissionControl,
    NoAdmissionControl,
)
from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.net.queues import DropTailFifo
from repro.net.topology import single_link
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowRequest
from repro.units import mbps


def setup_noac(link_rate=mbps(10)):
    sim = Simulator()
    streams = RandomStreams(5)
    network, port = single_link(sim, link_rate, lambda: DropTailFifo(200), 0.020)
    controller = NoAdmissionControl(sim, network, streams)
    return sim, network, port, controller


def request(flow_id=1, source="EXP1", lifetime=30.0, label=None):
    spec = get_source_spec(source)
    cls = FlowClass(label=label or source, spec=spec)
    return FlowRequest(flow_id=flow_id, cls=cls, arrival_time=0.0,
                       lifetime=lifetime)


class TestClassStats:
    def test_blocking_probability(self):
        stats = ClassStats()
        stats.offered = 10
        stats.admitted = 7
        assert stats.blocked == 3
        assert stats.blocking_probability == pytest.approx(0.3)

    def test_zero_offered(self):
        assert ClassStats().blocking_probability == 0.0
        assert ClassStats().loss_probability == 0.0

    def test_add_counters_with_baseline(self):
        stats = ClassStats()
        counters = dict(sent=100, delivered=90, dropped=10, marked=0,
                        lost=0, bytes_sent=12500, bytes_delivered=11250)
        baseline = dict(sent=40, delivered=38, dropped=2, marked=0,
                        lost=0, bytes_sent=5000, bytes_delivered=4750)
        stats.add_counters(counters, baseline)
        assert stats.sent == 60
        assert stats.dropped == 8
        assert stats.loss_probability == pytest.approx(8 / 60)

    def test_merge(self):
        a, b = ClassStats(), ClassStats()
        a.offered, a.admitted, a.sent = 5, 4, 100
        b.offered, b.admitted, b.sent = 3, 1, 50
        a.merge(b)
        assert a.offered == 8
        assert a.admitted == 5
        assert a.sent == 150

    def test_as_dict_keys(self):
        d = ClassStats().as_dict()
        for key in ("offered", "admitted", "blocked", "blocking_probability",
                    "loss_probability", "sent", "dropped"):
            assert key in d


class TestNoAdmissionControl:
    def test_admits_everything_immediately(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1))
        controller.handle(request(2))
        sim.run(until=1.0)
        assert all(o.admitted for o in controller.outcomes)
        assert port.stats.data_packets > 0  # no probing delay

    def test_live_flow_count(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=10.0))
        controller.handle(request(2, lifetime=50.0))
        sim.run(until=5.0)
        assert controller.live_flows == 2
        sim.run(until=20.0)
        assert controller.live_flows == 1
        sim.run(until=60.0)
        assert controller.live_flows == 0

    def test_outcome_completes_at_lifetime(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=10.0))
        sim.run(until=20.0)
        assert controller.outcomes[0].end_time == pytest.approx(10.0)


class TestMeasurementWindow:
    def test_decisions_counted_only_while_measuring(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=5.0))
        sim.run(until=6.0)
        controller.begin_measurement()
        controller.handle(request(2, lifetime=5.0))
        sim.run(until=12.0)
        totals = controller.totals()
        assert totals.offered == 1  # only the post-measurement decision

    def test_baseline_subtracts_warmup_traffic(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=100.0))
        sim.run(until=50.0)
        outcome = controller.outcomes[0]
        sent_before = outcome.data.sent
        assert sent_before > 0
        controller.begin_measurement()
        sim.run(until=60.0)
        totals = controller.totals()
        assert 0 < totals.sent < outcome.data.sent
        assert totals.sent == outcome.data.sent - sent_before

    def test_completed_flows_forgotten_at_measurement_start(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=2.0))
        sim.run(until=5.0)
        controller.begin_measurement()
        sim.run(until=6.0)
        assert controller.totals().sent == 0

    def test_port_counters_continue_across_the_boundary(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=100.0))
        sim.run(until=10.0)
        served = port.stats.data_bytes
        assert served > 0
        controller.begin_measurement()
        assert port.stats.data_bytes == served
        assert port.stats.window().data_bytes == 0
        assert port.stats.window().since == 10.0
        sim.run(until=20.0)
        assert port.stats.data_bytes > served
        assert port.stats.window().data_bytes == port.stats.data_bytes - served

    def test_begin_measurement_marks_every_port(self):
        sim, net, port, controller = setup_noac()
        back = net.add_link("dst", "src", mbps(10), lambda: DropTailFifo(10))
        port.stats.data_bytes = 999
        back.stats.data_bytes = 77
        sim.run(until=3.0)
        controller.begin_measurement()
        for p, total in ((port, 999), (back, 77)):
            assert p.stats.data_bytes == total
            assert p.stats.window().data_bytes == 0
            assert p.stats.window().since == 3.0

    def test_cumulative_and_window_counts_share_one_tally(self):
        sim, net, port, controller = setup_noac()
        controller.handle(request(1, lifetime=5.0))
        assert controller.totals().offered == 1  # the window opens at t = 0
        sim.run(until=6.0)
        controller.begin_measurement()
        assert controller.class_stats() == {}  # no decision in the window yet
        controller.handle(request(2, lifetime=5.0))
        controller.handle(request(3, lifetime=5.0))
        assert controller.admission_counts() == {"EXP1": (3, 3)}
        assert controller.totals().offered == 2

    def test_per_class_split(self):
        sim, net, port, controller = setup_noac()
        controller.begin_measurement()
        controller.handle(request(1, source="EXP1", lifetime=5.0))
        controller.handle(request(2, source="EXP3", lifetime=5.0))
        sim.run(until=10.0)
        stats = controller.class_stats()
        assert set(stats) == {"EXP1", "EXP3"}
        assert stats["EXP1"].offered == 1
        # EXP3 sends at twice the average rate of EXP1.
        assert stats["EXP3"].bytes_sent > stats["EXP1"].bytes_sent


class TestForceAdmit:
    def test_force_admit_bypasses_probing(self):
        sim = Simulator()
        streams = RandomStreams(5)
        design = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                                ProbingScheme.SLOW_START)
        network, port = single_link(sim, mbps(10),
                                    design.qdisc_factory(mbps(10), 200), 0.020)
        controller = EndpointAdmissionControl(sim, network, design, streams)
        controller.force_admit(request(-1, lifetime=5.0))
        sim.run(until=1.0)
        assert port.stats.data_packets > 0
        assert port.stats.probe_packets == 0
        assert controller.outcomes[0].admitted
