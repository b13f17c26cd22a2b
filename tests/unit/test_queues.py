"""Unit tests for the queueing disciplines."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import (
    DATA,
    PRIO_DATA,
    PRIO_PROBE,
    PROBE,
    FlowAccounting,
    Packet,
)
from repro.net.queues import DropTailFifo, FairQueueing, RedFifo, TwoLevelPriorityQueue
from repro.net.vq import VirtualQueue
from repro.sim.rng import RandomStreams


def pkt(flow, size=125, kind=DATA, prio=PRIO_DATA, seq=0):
    return Packet(size, kind, flow, (), prio=prio, seq=seq)


class TestDropTailFifo:
    def test_fifo_order(self):
        q = DropTailFifo(10)
        flow = FlowAccounting(1)
        packets = [pkt(flow, seq=i) for i in range(3)]
        for p in packets:
            assert q.enqueue(p, 0.0)
        assert [q.dequeue().seq for _ in range(3)] == [0, 1, 2]
        assert q.dequeue() is None

    def test_drops_when_full(self):
        q = DropTailFifo(2)
        flow = FlowAccounting(1)
        assert q.enqueue(pkt(flow), 0.0)
        assert q.enqueue(pkt(flow), 0.0)
        assert not q.enqueue(pkt(flow), 0.0)
        assert q.drops == 1
        assert flow.dropped == 1

    def test_drop_hook_fires(self):
        q = DropTailFifo(1)
        flow = FlowAccounting(1)
        hits = []
        flow.drop_hook = lambda: hits.append(1)
        q.enqueue(pkt(flow), 0.0)
        q.enqueue(pkt(flow), 0.0)
        assert hits == [1]

    def test_marker_marks_but_does_not_drop(self):
        marker = VirtualQueue(rate_bps=8e3, buffer_bytes=125, fraction=1.0)
        q = DropTailFifo(10, marker=marker)
        flow = FlowAccounting(1)
        p1, p2 = pkt(flow), pkt(flow)
        q.enqueue(p1, 0.0)
        q.enqueue(p2, 0.0)  # exceeds the 125-byte virtual buffer
        assert not p1.ecn
        assert p2.ecn
        assert q.backlog_packets == 2

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            DropTailFifo(0)


class TestTwoLevelPriorityQueue:
    def test_data_served_before_probes(self):
        q = TwoLevelPriorityQueue(10)
        flow = FlowAccounting(1)
        q.enqueue(pkt(flow, kind=PROBE, prio=PRIO_PROBE, seq=1), 0.0)
        q.enqueue(pkt(flow, kind=DATA, prio=PRIO_DATA, seq=2), 0.0)
        assert q.dequeue().seq == 2
        assert q.dequeue().seq == 1

    def test_shared_buffer_limit(self):
        q = TwoLevelPriorityQueue(2)
        flow = FlowAccounting(1)
        assert q.enqueue(pkt(flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        assert q.enqueue(pkt(flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        assert not q.enqueue(pkt(flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        assert q.backlog_packets == 2

    def test_data_pushes_out_resident_probe_when_full(self):
        q = TwoLevelPriorityQueue(2)
        data_flow, probe_flow = FlowAccounting(1), FlowAccounting(2)
        q.enqueue(pkt(probe_flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        q.enqueue(pkt(probe_flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        accepted = q.enqueue(pkt(data_flow, kind=DATA, prio=PRIO_DATA), 0.0)
        assert accepted
        assert probe_flow.dropped == 1
        assert data_flow.dropped == 0
        assert q.pushouts == 1
        assert q.backlog_at(PRIO_DATA) == 1
        assert q.backlog_at(PRIO_PROBE) == 1

    def test_data_dropped_when_full_of_data(self):
        q = TwoLevelPriorityQueue(2)
        flow = FlowAccounting(1)
        q.enqueue(pkt(flow, kind=DATA), 0.0)
        q.enqueue(pkt(flow, kind=DATA), 0.0)
        assert not q.enqueue(pkt(flow, kind=DATA), 0.0)
        assert flow.dropped == 1

    def test_pushout_disabled(self):
        q = TwoLevelPriorityQueue(1, pushout=False)
        probe_flow, data_flow = FlowAccounting(1), FlowAccounting(2)
        q.enqueue(pkt(probe_flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        assert not q.enqueue(pkt(data_flow, kind=DATA), 0.0)
        assert data_flow.dropped == 1
        assert probe_flow.dropped == 0

    def test_probe_marker_sees_data_arrivals(self):
        # Data alone fills the probe level's virtual queue, so a later
        # probe is marked even though no probe preceded it.
        probe_marker = VirtualQueue(rate_bps=8e3, buffer_bytes=250, fraction=1.0)
        q = TwoLevelPriorityQueue(100, probe_marker=probe_marker)
        flow = FlowAccounting(1)
        q.enqueue(pkt(flow, kind=DATA), 0.0)
        q.enqueue(pkt(flow, kind=DATA), 0.0)
        probe = pkt(flow, kind=PROBE, prio=PRIO_PROBE)
        q.enqueue(probe, 0.0)
        assert probe.ecn

    def test_out_of_range_priority_is_rejected(self):
        # Two levels are priorities 0 and 1; a negative priority is not
        # quietly queued at the probe level.
        q = TwoLevelPriorityQueue(10)
        flow = FlowAccounting(1)
        for prio in (-1, 2):
            with pytest.raises(ConfigurationError):
                q.enqueue(pkt(flow, kind=PROBE, prio=prio), 0.0)
        assert q.backlog_packets == 0
        assert q.enqueued == 0

    def test_data_marker_ignores_probe_arrivals(self):
        data_marker = VirtualQueue(rate_bps=8e3, buffer_bytes=250, fraction=1.0)
        q = TwoLevelPriorityQueue(100, data_marker=data_marker)
        flow = FlowAccounting(1)
        for __ in range(5):
            q.enqueue(pkt(flow, kind=PROBE, prio=PRIO_PROBE), 0.0)
        data = pkt(flow, kind=DATA)
        q.enqueue(data, 0.0)
        assert not data.ecn


class TestRedFifo:
    def make(self, rng, **kwargs):
        defaults = dict(capacity_packets=100, rate_bps=1e6, rng=rng,
                        min_th=5, max_th=15, max_p=0.5)
        defaults.update(kwargs)
        return RedFifo(**defaults)

    def test_no_drops_below_min_threshold(self, rng):
        q = self.make(rng)
        flow = FlowAccounting(1)
        for i in range(5):
            assert q.enqueue(pkt(flow), 0.0)
        assert flow.dropped == 0

    def test_probabilistic_drops_between_thresholds(self, rng):
        q = self.make(rng)
        flow = FlowAccounting(1)
        # Pump the average queue up: many arrivals, no service.
        for i in range(400):
            q.enqueue(pkt(flow), i * 1e-5)
        assert flow.dropped > 0
        assert q.backlog_packets < 400

    def test_hard_limit_always_drops(self, rng):
        q = self.make(rng, capacity_packets=3, min_th=100, max_th=200)
        flow = FlowAccounting(1)
        for __ in range(5):
            q.enqueue(pkt(flow), 0.0)
        assert q.backlog_packets == 3
        assert flow.dropped == 2

    def test_average_decays_when_idle(self, rng):
        q = self.make(rng)
        flow = FlowAccounting(1)
        for i in range(50):
            q.enqueue(pkt(flow), 0.0)
        while q.dequeue() is not None:
            pass
        q.note_idle(0.0)
        high = q.average_queue
        q.enqueue(pkt(flow), 10.0)  # long idle gap
        assert q.average_queue < high

    def test_invalid_thresholds(self, rng):
        with pytest.raises(ConfigurationError):
            self.make(rng, min_th=20, max_th=10)


class TestFairQueueing:
    def test_round_robins_equal_flows(self):
        q = FairQueueing(100)
        f1, f2 = FlowAccounting(1), FlowAccounting(2)
        for i in range(3):
            q.enqueue(pkt(f1, seq=10 + i), 0.0)
        for i in range(3):
            q.enqueue(pkt(f2, seq=20 + i), 0.0)
        order = [q.dequeue().flow.flow_id for _ in range(6)]
        # Interleaved service, not 1,1,1,2,2,2.
        assert order.count(1) == 3 and order.count(2) == 3
        assert order != [1, 1, 1, 2, 2, 2]

    def test_bandwidth_shares_are_max_min_fair(self):
        q = FairQueueing(1000)
        heavy, light = FlowAccounting(1), FlowAccounting(2)
        for i in range(90):
            q.enqueue(pkt(heavy), 0.0)
        for i in range(10):
            q.enqueue(pkt(light), 0.0)
        first20 = [q.dequeue().flow.flow_id for _ in range(20)]
        # The light flow gets through early despite the heavy backlog.
        assert first20.count(2) == 10

    def test_longest_queue_drop_protects_light_flows(self):
        q = FairQueueing(10)
        heavy, light = FlowAccounting(1), FlowAccounting(2)
        for __ in range(10):
            q.enqueue(pkt(heavy), 0.0)
        assert q.enqueue(pkt(light), 0.0)
        assert heavy.dropped == 1
        assert light.dropped == 0

    def test_weights(self):
        q = FairQueueing(100)
        q.weights = {1: 3.0, 2: 1.0}
        f1, f2 = FlowAccounting(1), FlowAccounting(2)
        for __ in range(30):
            q.enqueue(pkt(f1), 0.0)
            q.enqueue(pkt(f2), 0.0)
        first12 = [q.dequeue().flow.flow_id for _ in range(12)]
        assert first12.count(1) == 9
        assert first12.count(2) == 3

    def test_conservation(self):
        q = FairQueueing(50)
        flows = [FlowAccounting(i) for i in range(5)]
        total_in = 0
        for i in range(200):
            if q.enqueue(pkt(flows[i % 5]), 0.0):
                total_in += 1
        served = 0
        while q.dequeue() is not None:
            served += 1
        dropped = sum(f.dropped for f in flows)
        assert served + dropped == 200
        assert q.backlog_packets == 0
