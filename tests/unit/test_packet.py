"""Unit tests for packets and flow accounting."""

from repro.net.packet import DATA, PRIO_PROBE, PROBE, FlowAccounting, Packet


def test_accounting_starts_at_zero():
    flow = FlowAccounting(7)
    assert flow.flow_id == 7
    assert flow.sent == flow.delivered == flow.dropped == flow.marked == 0


def test_loss_fraction():
    flow = FlowAccounting(1)
    flow.sent = 100
    flow.dropped = 5
    assert flow.loss_fraction == 0.05


def test_loss_fraction_zero_when_nothing_sent():
    assert FlowAccounting(1).loss_fraction == 0.0


def test_congestion_fraction_counts_marks_and_drops():
    flow = FlowAccounting(1)
    flow.sent = 100
    flow.dropped = 3
    flow.marked = 7
    assert flow.congestion_fraction == 0.10
    assert flow.loss_fraction == 0.03


def test_snapshot_is_plain_dict():
    flow = FlowAccounting(2)
    flow.sent = 10
    flow.bytes_sent = 1250
    snap = flow.snapshot()
    assert snap["sent"] == 10
    assert snap["bytes_sent"] == 1250
    flow.sent = 20
    assert snap["sent"] == 10  # a copy, not a view


def test_packet_fields():
    flow = FlowAccounting(3)
    path = (print,)
    pkt = Packet(125, PROBE, flow, path, prio=PRIO_PROBE,
                 seq=9, created=1.5)
    assert pkt.size == 125
    assert pkt.kind == PROBE
    assert pkt.prio == PRIO_PROBE
    assert pkt.flow is flow
    assert pkt.hop == 0
    assert not pkt.ecn
    assert pkt.seq == 9
    assert pkt.created == 1.5
    assert pkt.path is path
    assert pkt.home is None


def test_packet_repr_mentions_kind():
    pkt = Packet(125, DATA, FlowAccounting(1), ())
    assert "data" in repr(pkt)
