"""Unit tests for the priority queue with several data levels (Section 2.1.3)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import DATA, PROBE, FlowAccounting, Packet
from repro.net.queues import TwoLevelPriorityQueue
from repro.net.vq import VirtualQueue


def pkt(flow, prio, kind=DATA, seq=0):
    return Packet(125, kind, flow, (), prio=prio, seq=seq)


def test_levels_and_probe_level():
    q = TwoLevelPriorityQueue(capacity_packets=10, levels=3)
    assert q.levels == 3
    assert q.probe_level == 2


def test_strict_priority_order():
    q = TwoLevelPriorityQueue(10, levels=3)
    flow = FlowAccounting(1)
    q.enqueue(pkt(flow, prio=2, kind=PROBE, seq=30), 0.0)
    q.enqueue(pkt(flow, prio=1, seq=20), 0.0)
    q.enqueue(pkt(flow, prio=0, seq=10), 0.0)
    assert [q.dequeue().seq for _ in range(3)] == [10, 20, 30]


def test_arrival_pushes_out_lowest_level_first():
    q = TwoLevelPriorityQueue(2, levels=3)
    probe_flow, low_flow, high_flow = (FlowAccounting(i) for i in range(3))
    q.enqueue(pkt(low_flow, prio=1), 0.0)
    q.enqueue(pkt(probe_flow, prio=2, kind=PROBE), 0.0)
    # A high-priority arrival evicts the probe, not the level-1 data.
    assert q.enqueue(pkt(high_flow, prio=0), 0.0)
    assert probe_flow.dropped == 1
    assert low_flow.dropped == 0
    assert q.pushouts == 1


def test_cannot_push_out_equal_or_higher_priority():
    q = TwoLevelPriorityQueue(2, levels=3)
    flow = FlowAccounting(1)
    q.enqueue(pkt(flow, prio=0), 0.0)
    q.enqueue(pkt(flow, prio=0), 0.0)
    newcomer = FlowAccounting(2)
    assert not q.enqueue(pkt(newcomer, prio=0), 0.0)
    assert not q.enqueue(pkt(newcomer, prio=1), 0.0)
    assert newcomer.dropped == 2


def test_probes_share_one_level_regardless_of_service_class():
    """The Section 2.1.3 fix: probes for different data levels compete in
    the same class, so a level-2 probe and a level-1 probe see identical
    conditions."""
    q = TwoLevelPriorityQueue(100, levels=3)
    a, b = FlowAccounting(1), FlowAccounting(2)
    q.enqueue(pkt(a, prio=q.probe_level, kind=PROBE), 0.0)
    q.enqueue(pkt(b, prio=q.probe_level, kind=PROBE), 0.0)
    first = q.dequeue()
    second = q.dequeue()
    assert first.flow is a and second.flow is b  # pure FIFO between them


def test_markers_split_data_levels_from_the_probe_level():
    """The data marker observes every data level, the probe marker every
    arrival; each marks only packets of its own kind of level."""
    data_marker = VirtualQueue(rate_bps=8e3, buffer_bytes=250, fraction=1.0)
    probe_marker = VirtualQueue(rate_bps=8e3, buffer_bytes=375, fraction=1.0)
    q = TwoLevelPriorityQueue(100, data_marker=data_marker,
                              probe_marker=probe_marker, levels=3)
    flow = FlowAccounting(1)
    first, second, third = pkt(flow, prio=0), pkt(flow, prio=1), pkt(flow, prio=1)
    for p in (first, second, third):
        q.enqueue(p, 0.0)
    assert (first.ecn, second.ecn, third.ecn) == (False, False, True)
    probe = pkt(flow, prio=q.probe_level, kind=PROBE)
    q.enqueue(probe, 0.0)
    assert probe.ecn


def test_conservation():
    q = TwoLevelPriorityQueue(5, levels=4)
    flows = [FlowAccounting(i) for i in range(4)]
    offered = 0
    for i in range(50):
        q.enqueue(pkt(flows[i % 4], prio=i % 4), 0.0)
        offered += 1
    served = 0
    while q.dequeue() is not None:
        served += 1
    dropped = sum(f.dropped for f in flows)
    assert served + dropped == offered
    assert q.backlog_packets == 0


def test_invalid_construction_and_priority():
    with pytest.raises(ConfigurationError):
        TwoLevelPriorityQueue(10, levels=1)
    with pytest.raises(ConfigurationError):
        TwoLevelPriorityQueue(0, levels=3)
    q = TwoLevelPriorityQueue(10, levels=3)
    with pytest.raises(ConfigurationError):
        q.enqueue(pkt(FlowAccounting(1), prio=5), 0.0)
