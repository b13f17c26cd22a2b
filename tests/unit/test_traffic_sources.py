"""Unit tests for CBR and on-off sources."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.link import OutputPort
from repro.net.packet import PROBE, FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator
from repro.traffic.cbr import ConstantRateSource
from repro.traffic.onoff import ExponentialOnOffSource, ParetoOnOffSource

from tests.conftest import make_link


def cbr(sim, port, sink, rate=100e3, size=125, **kwargs):
    flow = FlowAccounting(1)
    src = ConstantRateSource(sim, [port], sink, flow, rate, size, **kwargs)
    return src, flow


class TestConstantRateSource:
    def test_rate_is_accurate(self, sim):
        port, sink = make_link(sim, rate_bps=10e6, capacity=1000)
        src, flow = cbr(sim, port, sink, rate=100e3)
        src.start()
        sim.run(until=10.0)
        src.stop()
        # 100 kbps of 125-byte packets = 100 packets/s.
        assert flow.sent == pytest.approx(1000, abs=2)

    def test_first_packet_immediate(self, sim):
        port, sink = make_link(sim)
        src, flow = cbr(sim, port, sink)
        src.start()
        sim.step()  # only the initial emission event
        assert flow.sent == 1

    def test_stop_halts_emission(self, sim):
        port, sink = make_link(sim, capacity=1000)
        src, flow = cbr(sim, port, sink)
        src.start()
        sim.run(until=1.0)
        src.stop()
        sent = flow.sent
        sim.run(until=5.0)
        assert flow.sent == sent

    def test_set_rate_changes_spacing(self, sim):
        port, sink = make_link(sim, rate_bps=10e6, capacity=10000)
        src, flow = cbr(sim, port, sink, rate=100e3)
        src.start()
        sim.run(until=1.0)
        src.set_rate(200e3)
        sim.run(until=2.0)
        src.stop()
        # ~100 packets in the first second, ~200 in the second.
        assert 280 <= flow.sent <= 320

    def test_restart_does_not_double_emit(self, sim):
        port, sink = make_link(sim, capacity=10000)
        src, flow = cbr(sim, port, sink, rate=100e3)
        src.start()
        sim.run(until=1.0)
        src.stop()
        src.start()
        sim.run(until=2.0)
        src.stop()
        assert flow.sent == pytest.approx(200, abs=4)

    def test_kind_and_priority_stamped(self, sim):
        port, sink = make_link(sim)
        flow = FlowAccounting(1)
        src = ConstantRateSource(sim, [port], sink, flow, 1e5, 125,
                                 kind=PROBE, prio=1)
        src.start()
        sim.run(until=0.5)
        src.stop()
        assert port.stats.probe_packets > 0
        assert port.stats.data_packets == 0

    def test_invalid_rate(self, sim):
        port, sink = make_link(sim)
        with pytest.raises(ConfigurationError):
            cbr(sim, port, sink, rate=0)
        src, __ = cbr(sim, port, sink)
        with pytest.raises(ConfigurationError):
            src.set_rate(-1)


class TestExponentialOnOff:
    def make(self, sim, port, sink, rng, burst=256e3, on=0.5, off=0.5):
        flow = FlowAccounting(1)
        src = ExponentialOnOffSource(sim, [port], sink, flow, burst, on, off,
                                     125, rng)
        return src, flow

    def test_average_rate_near_half_burst(self, sim, rng):
        port, sink = make_link(sim, rate_bps=10e6, capacity=10000)
        src, flow = self.make(sim, port, sink, rng)
        src.start()
        sim.run(until=100.0)
        src.stop()
        # 256 kbps burst, 50% duty -> ~128 kbps -> 128 pkt/s average.
        rate = flow.bytes_sent * 8 / 100.0
        assert rate == pytest.approx(128e3, rel=0.15)

    def test_average_rate_property(self, sim, rng):
        port, sink = make_link(sim)
        src, __ = self.make(sim, port, sink, rng, burst=1024e3, on=0.125, off=0.875)
        assert src.average_rate_bps == pytest.approx(128e3)

    def test_emits_at_burst_rate_while_on(self, sim, rng):
        port, sink = make_link(sim, rate_bps=10e6, capacity=10000)
        flow = FlowAccounting(1)
        src = ExponentialOnOffSource(sim, [port], sink, flow, 256e3, 1e6, 0.0,
                                     125, rng)  # effectively always on
        src.start()
        sim.run(until=2.0)
        src.stop()
        assert flow.sent == pytest.approx(512, abs=4)

    def test_always_on_source_is_a_cbr_source_at_its_burst_rate(self):
        """``mean_off == 0`` is one ON period that never ends: no renewal
        restarts the tick train early (an EXP1-shaped source used to send
        25 693 packets in 100 s where its burst rate gives 25 601)."""

        def sent(make_source):
            sim = Simulator()
            port = OutputPort(sim, 1e9, DropTailFifo(1000), 0.0)
            got = []
            sink = Sink(sim, on_receive=lambda pkt: got.append(
                (pkt.seq, pkt.created)))
            flow = FlowAccounting(1)
            src = make_source(sim, port, sink, flow)
            src.start()
            sim.run(until=100.0)
            src.stop()
            return flow.sent, got

        always_on = sent(lambda sim, port, sink, flow: ExponentialOnOffSource(
            sim, [port], sink, flow, 256e3, 0.5, 0.0, 125,
            np.random.default_rng(3)))
        constant = sent(lambda sim, port, sink, flow: ConstantRateSource(
            sim, [port], sink, flow, 256e3, 125))
        assert constant[0] == 25_601
        assert always_on == constant

    def test_stop_silences(self, sim, rng):
        port, sink = make_link(sim, capacity=10000)
        src, flow = self.make(sim, port, sink, rng)
        src.start()
        sim.run(until=5.0)
        src.stop()
        sent = flow.sent
        sim.run(until=20.0)
        assert flow.sent == sent

    def test_invalid_parameters(self, sim, rng):
        port, sink = make_link(sim)
        flow = FlowAccounting(1)
        with pytest.raises(ConfigurationError):
            ExponentialOnOffSource(sim, [port], sink, flow, 0, 0.5, 0.5, 125, rng)
        with pytest.raises(ConfigurationError):
            ExponentialOnOffSource(sim, [port], sink, flow, 1e5, 0, 0.5, 125, rng)


class TestParetoOnOff:
    def test_mean_holding_times_match_configuration(self, sim, rng):
        port, sink = make_link(sim)
        flow = FlowAccounting(1)
        src = ParetoOnOffSource(sim, [port], sink, flow, 256e3, 0.5, 0.5,
                                125, rng, shape=1.2)
        samples = [src._draw_on() for __ in range(20000)]
        mean = sum(samples) / len(samples)
        # alpha=1.2 has infinite variance; the sample mean converges slowly.
        assert 0.3 < mean < 1.0

    def test_heavy_tail_present(self, sim, rng):
        port, sink = make_link(sim)
        flow = FlowAccounting(1)
        src = ParetoOnOffSource(sim, [port], sink, flow, 256e3, 0.5, 0.5,
                                125, rng, shape=1.2)
        samples = [src._draw_on() for __ in range(20000)]
        # An exponential with the same mean would essentially never exceed
        # 10 s (e^-20 ~ 2e-9); the Pareto tail must.
        assert max(samples) > 10.0

    def test_shape_must_exceed_one(self, sim, rng):
        port, sink = make_link(sim)
        flow = FlowAccounting(1)
        with pytest.raises(ConfigurationError):
            ParetoOnOffSource(sim, [port], sink, flow, 256e3, 0.5, 0.5,
                              125, rng, shape=1.0)

    def test_long_run_average_rate(self, sim, rng):
        port, sink = make_link(sim, rate_bps=10e6, capacity=100000)
        flow = FlowAccounting(1)
        src = ParetoOnOffSource(sim, [port], sink, flow, 256e3, 0.5, 0.5,
                                125, rng, shape=1.2)
        src.start()
        sim.run(until=200.0)
        src.stop()
        rate = flow.bytes_sent * 8 / 200.0
        # LRD: wide tolerance, but the right ballpark.
        assert 60e3 < rate < 220e3
