"""Unit tests for output ports (serialization, propagation, stats)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import BEST_EFFORT, DATA, PROBE, FlowAccounting
from repro.net.queues import DropTailFifo, RedFifo
from repro.sim.engine import Simulator

from tests.conftest import make_link, make_packet, send_packets


def test_single_packet_delivery_time(sim):
    # 125 bytes at 1 Mbps = 1 ms serialization + 10 ms propagation.
    port, sink = make_link(sim, rate_bps=1e6, prop_delay=0.010)
    flow = send_packets(sim, port, sink, 1)
    sim.run()
    assert flow.delivered == 1
    assert sink.mean_latency == pytest.approx(0.011)


def test_back_to_back_serialization(sim):
    port, sink = make_link(sim, rate_bps=1e6, prop_delay=0.0)
    flow = send_packets(sim, port, sink, 3)
    sim.run()
    assert flow.delivered == 3
    # Last packet leaves after 3 serialization times.
    assert sim.now == pytest.approx(0.003)


def test_idle_port_start_takes_the_chain_slot(sim):
    """The first serialization of a busy period stays off the timer heap."""
    port, sink = make_link(sim, rate_bps=1e6, prop_delay=0.0)
    flow = send_packets(sim, port, sink, 1, size=500)
    assert sim._heap == []
    assert sim.pending == 1
    assert sim.step()
    assert flow.delivered == 1
    assert sim.now == 500 * 8 / 1e6


def test_propagation_is_pipelined(sim):
    """Propagation overlaps with the next packet's serialization."""
    port, sink = make_link(sim, rate_bps=1e6, prop_delay=0.050)
    send_packets(sim, port, sink, 3)
    sim.run()
    # 3 ms of serialization + one 50 ms propagation, not three.
    assert sim.now == pytest.approx(0.053)


def test_drops_counted_once_buffer_fills(sim):
    port, sink = make_link(sim, rate_bps=1e6, capacity=5)
    # 10 packets arrive instantly: 1 in service + 5 queued, 4 dropped.
    flow = send_packets(sim, port, sink, 10)
    sim.run()
    assert flow.delivered == 6
    assert flow.dropped == 4


def test_port_stats_by_kind(sim):
    port, sink = make_link(sim, rate_bps=1e6, capacity=100)
    flow = FlowAccounting(1)
    for kind in (DATA, DATA, PROBE, BEST_EFFORT):
        flow.sent += 1
        port.send(make_packet(flow, [port], sink, kind=kind))
    sim.run()
    assert port.stats.data_packets == 2
    assert port.stats.data_bytes == 250
    assert port.stats.probe_packets == 1
    assert port.stats.be_bytes == 125


def test_arrival_byte_counters(sim):
    port, sink = make_link(sim, rate_bps=1e6, capacity=1)
    flow = FlowAccounting(1)
    for i in range(5):
        flow.sent += 1
        port.send(make_packet(flow, [port], sink, kind=DATA))
    # Arrivals count even the dropped ones (they did arrive at the port).
    assert port.stats.arrived_data_bytes == 625


def test_utilization_excludes_probes_by_default(sim):
    port, sink = make_link(sim, rate_bps=1e6, capacity=100)
    send_packets(sim, port, sink, 4, kind=DATA)
    send_packets(sim, port, sink, 4, kind=PROBE)
    sim.run(until=1.0)
    util_data = port.stats.utilization(port.rate_bps, sim.now)
    util_all = port.stats.utilization(port.rate_bps, sim.now, include_probes=True)
    assert util_all == pytest.approx(2 * util_data)


def test_stats_mark_opens_a_window_without_touching_counters(sim):
    port, sink = make_link(sim, rate_bps=1e6)
    send_packets(sim, port, sink, 3)
    sim.run(until=0.5)
    before = port.stats.window()
    assert (before.data_bytes, before.since) == (375, 0.0)
    port.stats.mark(sim.now)
    # Counters continue across the mark; the window subtracts; since moves.
    assert port.stats.data_bytes == 375
    assert port.stats.since == 0.0
    window = port.stats.window()
    assert window.data_bytes == 0
    assert window.since == 0.5
    assert window.utilization(port.rate_bps, sim.now) == 0.0
    send_packets(sim, port, sink, 2)
    sim.run(until=1.0)
    assert port.stats.data_bytes == 625
    assert port.stats.arrived_data_bytes == 625
    window = port.stats.window()
    assert (window.data_bytes, window.data_packets) == (250, 2)
    assert window.arrived_data_bytes == 250
    assert window.utilization(port.rate_bps, sim.now) == pytest.approx(
        250 * 8 / (1e6 * 0.5))
    # The window is detached: later traffic does not move it.
    send_packets(sim, port, sink, 1)
    sim.run(until=1.5)
    assert window.data_bytes == 250
    assert port.stats.window().data_bytes == 375


def test_multi_hop_route(sim):
    q1, q2 = DropTailFifo(10), DropTailFifo(10)
    hop1 = OutputPort(sim, 1e6, q1, prop_delay=0.005, name="hop1")
    hop2 = OutputPort(sim, 1e6, q2, prop_delay=0.005, name="hop2")
    from repro.net.sink import Sink

    sink = Sink(sim, record_latency=True)
    flow = FlowAccounting(1)
    flow.sent += 1
    hop1.send(make_packet(flow, [hop1, hop2], sink))
    sim.run()
    assert flow.delivered == 1
    # Two serializations (1 ms each) + two propagations (5 ms each).
    assert sink.mean_latency == pytest.approx(0.012)


def test_invalid_port_parameters(sim):
    with pytest.raises(ConfigurationError):
        OutputPort(sim, 0, DropTailFifo(1))
    with pytest.raises(ConfigurationError):
        OutputPort(sim, 1e6, DropTailFifo(1), prop_delay=-1.0)


def _red_average_after_idle(outage: bool) -> float:
    """RED's average at the first arrival after 100 s without service.

    A 40-packet burst fills a 1 Mb/s RED port.  With ``outage`` the port
    goes down mid-way through the first packet and comes back 100 s later;
    without, it drains and idles.  Either way the arrival lands 1 us after
    the recovery time.
    """
    sim = Simulator()
    red = RedFifo(100, 1e6, np.random.default_rng(5), weight=0.2)
    port, sink = make_link(sim, rate_bps=1e6, qdisc=red)
    send_packets(sim, port, sink, 40)
    if outage:
        sim.call(0.0005, port.set_enabled, False)
        sim.call(100.0005, port.set_enabled, True)
    arrival = 100.0005 + 1e-6
    sim.call(arrival, port.send, make_packet(FlowAccounting(2), [port], sink))
    sim.run(until=arrival)
    return red.average_queue


def test_idle_hook_fires_when_an_outage_idles_the_transmitter():
    """The idle clock starts when the doomed packet's serialization ends,
    not when the port comes back (the average used to read 34.0)."""
    assert _red_average_after_idle(outage=False) == 0.0
    assert _red_average_after_idle(outage=True) == 0.0
