"""Unit tests for sinks and topologies."""

import pytest

from repro.errors import TopologyError
from repro.net.packet import DATA, FlowAccounting, Packet
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.net.topology import Network, parking_lot, single_link


def qdisc():
    return DropTailFifo(200)


class TestSink:
    def test_counts_delivery_and_marks(self, sim):
        sink = Sink(sim)
        flow = FlowAccounting(1)
        pkt = Packet(125, DATA, flow, [], sink)
        pkt.ecn = True
        sink.receive(pkt)
        assert flow.delivered == 1
        assert flow.marked == 1
        assert flow.bytes_delivered == 125

    def test_mark_hook(self, sim):
        sink = Sink(sim)
        flow = FlowAccounting(1)
        hits = []
        flow.mark_hook = lambda: hits.append(1)
        marked = Packet(125, DATA, flow, [], sink)
        marked.ecn = True
        unmarked = Packet(125, DATA, flow, [], sink)
        sink.receive(marked)
        sink.receive(unmarked)
        assert hits == [1]

    def test_on_receive_callback(self, sim):
        got = []
        sink = Sink(sim, on_receive=got.append)
        pkt = Packet(125, DATA, FlowAccounting(1), [], sink)
        sink.receive(pkt)
        assert got == [pkt]

    def test_latency_stats(self, sim):
        sink = Sink(sim, record_latency=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        pkt = Packet(125, DATA, FlowAccounting(1), [], sink, created=0.25)
        sink.receive(pkt)
        assert sink.mean_latency == pytest.approx(0.75)
        assert sink.latency_max == pytest.approx(0.75)

    def test_mean_latency_zero_when_empty(self, sim):
        assert Sink(sim, record_latency=True).mean_latency == 0.0


class TestNetwork:
    def test_route_is_port_list(self, sim):
        net = Network(sim)
        for n in ("a", "b", "c"):
            net.add_node(n)
        p1 = net.add_link("a", "b", 1e6, qdisc)
        p2 = net.add_link("b", "c", 1e6, qdisc)
        assert net.route("a", "c") == [p1, p2]

    def test_route_cached(self, sim):
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 1e6, qdisc)
        assert net.route("a", "b") is net.route("a", "b")

    def test_duplicate_link_rejected(self, sim):
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 1e6, qdisc)
        with pytest.raises(TopologyError):
            net.add_link("a", "b", 1e6, qdisc)

    def test_no_route_raises(self, sim):
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(TopologyError):
            net.route("a", "b")

    def test_unknown_node_raises(self, sim):
        net = Network(sim)
        net.add_node("a")
        with pytest.raises(TopologyError, match="unknown node 'z'"):
            net.route("a", "z")
        with pytest.raises(TopologyError, match="unknown node 'z'"):
            net.route("z", "a")

    def test_route_to_self_is_empty(self, sim):
        net = Network(sim)
        net.add_node("a")
        assert net.route("a", "a") == []

    def test_route_is_minimum_hop_and_ties_go_to_the_first_link(self, sim):
        net = Network(sim)
        net.add_link("a", "x", 1e6, qdisc)      # long way round: a-x-y-d
        net.add_link("x", "y", 1e6, qdisc)
        net.add_link("y", "d", 1e6, qdisc)
        via_c = [net.add_link("a", "c", 1e6, qdisc),
                 net.add_link("c", "d", 1e6, qdisc)]
        net.add_link("a", "b", 1e6, qdisc)      # as short as via c, added later
        net.add_link("b", "d", 1e6, qdisc)
        assert net.route("a", "d") == via_c
        with pytest.raises(TopologyError, match="no path"):
            net.route("d", "a")                  # links are directed

    def test_new_link_invalidates_cached_routes(self, sim):
        net = Network(sim)
        net.add_link("a", "b", 1e6, qdisc)
        net.add_link("b", "c", 1e6, qdisc)
        assert len(net.route("a", "c")) == 2
        shortcut = net.add_link("a", "c", 1e6, qdisc)
        assert net.route("a", "c") == [shortcut]

    def test_unknown_port_raises(self, sim):
        net = Network(sim)
        with pytest.raises(TopologyError):
            net.port("x", "y")

    def test_bidirectional_creates_mirror(self, sim):
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", 1e6, qdisc, bidirectional=True)
        assert net.port("b", "a") is not net.port("a", "b")


class TestBuilders:
    def test_single_link(self, sim):
        net, port = single_link(sim, 1e7, qdisc)
        assert net.route("src", "dst") == [port]

    def test_parking_lot_long_route_spans_backbone(self, sim):
        net, backbone = parking_lot(sim, 1e7, qdisc, backbone_links=3)
        assert len(backbone) == 3
        assert net.route("b0", "b3") == backbone

    def test_parking_lot_cross_route_uses_one_backbone_link(self, sim):
        net, backbone = parking_lot(sim, 1e7, qdisc, backbone_links=3)
        for i in range(3):
            route = net.route(f"in{i}", f"out{i}")
            shared = [p for p in route if p in backbone]
            assert shared == [backbone[i]]

    def test_parking_lot_access_links_are_fast(self, sim):
        net, backbone = parking_lot(sim, 1e7, qdisc, backbone_links=2)
        route = net.route("in0", "out0")
        access = [p for p in route if p not in backbone]
        assert all(p.rate_bps > 1e8 for p in access)

    def test_parking_lot_requires_a_link(self, sim):
        with pytest.raises(TopologyError):
            parking_lot(sim, 1e7, qdisc, backbone_links=0)
