"""Property-based tests: conservation and ordering invariants of queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import DATA, PRIO_DATA, PRIO_PROBE, PROBE, FlowAccounting, Packet
from repro.net.queues import DropTailFifo, FairQueueing, TwoLevelPriorityQueue
from repro.net.vq import VirtualQueue

# An operation stream: (is_enqueue, prio, flow_id)
ops = st.lists(
    st.tuples(st.booleans(), st.sampled_from([PRIO_DATA, PRIO_PROBE]),
              st.integers(min_value=0, max_value=4)),
    max_size=300,
)
# The same for priority queues of up to four levels: a queue of N levels
# reads the priority modulo N.
level_ops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=4)),
    max_size=300,
)
capacities = st.integers(min_value=1, max_value=20)


def run_ops(queue, op_list):
    flows = {}
    enq = deq = 0
    for is_enqueue, prio, flow_id in op_list:
        if is_enqueue:
            flow = flows.setdefault(flow_id, FlowAccounting(flow_id))
            kind = DATA if prio == PRIO_DATA else PROBE
            pkt = Packet(125, kind, flow, (), prio=prio)
            if queue.enqueue(pkt, 0.0):
                enq += 1
        else:
            if queue.dequeue() is not None:
                deq += 1
    return flows, enq, deq


@given(ops, capacities)
def test_droptail_conservation(op_list, capacity):
    queue = DropTailFifo(capacity)
    flows, enq, deq = run_ops(queue, op_list)
    backlog = 0
    while queue.dequeue() is not None:
        backlog += 1
    assert enq == deq + backlog
    assert backlog <= capacity


@given(ops, capacities)
def test_droptail_never_exceeds_capacity(op_list, capacity):
    queue = DropTailFifo(capacity)
    for is_enqueue, prio, flow_id in op_list:
        if is_enqueue:
            queue.enqueue(Packet(125, DATA, FlowAccounting(flow_id), ()), 0.0)
        else:
            queue.dequeue()
        assert queue.backlog_packets <= capacity


# The priority queue's properties hold for every number of data levels
# over the shared probe level, with and without virtual-queue markers
# (marking must never change what is queued, served or dropped).
priority_queues = pytest.mark.parametrize(
    "levels, marked",
    [pytest.param(levels, marked, id=f"{levels}-{'marked' if marked else 'plain'}")
     for levels in (2, 3, 4) for marked in (False, True)],
)


def priority_queue(capacity, levels, marked):
    markers = {}
    if marked:
        # A small virtual buffer, so markers fire within a few packets.
        markers = dict(data_marker=VirtualQueue(8e3, 250),
                       probe_marker=VirtualQueue(8e3, 250))
    return TwoLevelPriorityQueue(capacity, levels=levels, **markers)


def level_packet(queue, prio, flow):
    """A packet at level ``prio % levels``: probes ride the bottom level."""
    prio %= queue.levels
    kind = PROBE if prio == queue.probe_level else DATA
    return Packet(125, kind, flow, (), prio=prio)


@priority_queues
@given(op_list=level_ops, capacity=capacities)
def test_priority_queue_conservation_with_pushout(op_list, capacity, levels, marked):
    queue = priority_queue(capacity, levels, marked)
    flows = {}
    deq = 0
    for is_enqueue, prio, flow_id in op_list:
        if is_enqueue:
            flow = flows.setdefault(flow_id, FlowAccounting(flow_id))
            queue.enqueue(level_packet(queue, prio, flow), 0.0)
        elif queue.dequeue() is not None:
            deq += 1
    backlog = 0
    while queue.dequeue() is not None:
        backlog += 1
    dropped = sum(f.dropped for f in flows.values())
    sent = sum(1 for is_enq, *_ in op_list if is_enq)
    # Every offered packet was either eventually dequeued or dropped
    # (push-out makes enqueue-accepted packets droppable later).
    assert deq + backlog + dropped == sent
    assert queue.backlog_packets == 0


@priority_queues
@given(op_list=level_ops, capacity=capacities)
def test_priority_queue_occupancy_bounded(op_list, capacity, levels, marked):
    queue = priority_queue(capacity, levels, marked)
    for is_enqueue, prio, flow_id in op_list:
        if is_enqueue:
            queue.enqueue(level_packet(queue, prio, FlowAccounting(flow_id)), 0.0)
        else:
            queue.dequeue()
        assert queue.backlog_packets <= capacity


@priority_queues
@given(op_list=level_ops)
@settings(max_examples=50)
def test_priority_queue_data_always_served_first(op_list, levels, marked):
    queue = priority_queue(100, levels, marked)
    for is_enqueue, prio, flow_id in op_list:
        if is_enqueue:
            queue.enqueue(level_packet(queue, prio, FlowAccounting(flow_id)), 0.0)
        else:
            pkt = queue.dequeue()
            if pkt is not None:
                # Strict priority: nothing above the served level waits.
                for higher in range(pkt.prio):
                    assert queue.backlog_at(higher) == 0
                if pkt.prio == queue.probe_level:
                    assert queue.backlog_at(PRIO_DATA) == 0


@priority_queues
@given(op_list=level_ops, capacity=capacities)
def test_priority_queue_pushout_evicts_youngest_of_lowest_level(
    op_list, capacity, levels, marked
):
    """Against a list model: a full queue drops the youngest packet of the
    lowest non-empty level strictly below the arrival, else the arrival,
    and serves levels in order, FIFO within a level."""
    queue = priority_queue(capacity, levels, marked)
    model = [[] for __ in range(levels)]  # per level, oldest first
    drops = pushouts = 0
    for i, (is_enqueue, prio, __) in enumerate(op_list):
        if not is_enqueue:
            served = queue.dequeue()
            waiting = [level for level in model if level]
            assert served is (waiting[0].pop(0) if waiting else None)
            continue
        # One flow per packet, so a flow's drop count names the victim.
        pkt = level_packet(queue, prio, FlowAccounting(i))
        victim = None
        if sum(map(len, model)) >= capacity:
            below = [level for level in model[pkt.prio + 1:] if level]
            victim = below[-1].pop() if below else pkt
        accepted = queue.enqueue(pkt, 0.0)
        assert accepted is (victim is not pkt)
        if accepted:
            model[pkt.prio].append(pkt)
        if victim is not None:
            assert victim.flow.dropped == 1
            drops += 1
            pushouts += victim is not pkt
        assert (queue.drops, queue.pushouts) == (drops, pushouts)
    assert queue.backlog_packets == sum(map(len, model))


@given(ops, capacities)
@settings(max_examples=50)
def test_fair_queueing_conservation(op_list, capacity):
    queue = FairQueueing(capacity)
    flows, enq, deq = run_ops(queue, op_list)
    backlog = 0
    while queue.dequeue() is not None:
        backlog += 1
    dropped = sum(f.dropped for f in flows.values())
    sent = sum(1 for is_enq, *_ in op_list if is_enq)
    assert deq + backlog + dropped == sent
