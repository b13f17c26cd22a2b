"""Further runner tests: per-link metrics, probe accounting, determinism."""

import pytest

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments.runner import (
    MbacConfig,
    ScenarioConfig,
    link_loss,
    run_scenario,
)
from repro.net.packet import DATA, PROBE, FlowAccounting, Packet
from repro.net.queues import DropTailFifo, TwoLevelPriorityQueue
from repro.units import mbps

FAST = dict(duration=120.0, warmup=40.0, lifetime_mean=30.0,
            link_rate_bps=mbps(2), interarrival=1.5)

DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                        ProbingScheme.SLOW_START, epsilon=0.01)


@pytest.fixture(scope="module")
def eac_result():
    return run_scenario(ScenarioConfig(source="EXP1", **FAST), DESIGN)


def test_events_and_seconds_recorded(eac_result):
    assert eac_result.events > 10000
    assert eac_result.sim_seconds == 120.0


def test_per_link_metrics_single_topology(eac_result):
    assert len(eac_result.per_link_utilization) == 1
    assert len(eac_result.per_link_loss) == 1
    assert 0.0 <= eac_result.per_link_loss[0] <= 1.0
    assert eac_result.per_link_utilization[0] == pytest.approx(
        eac_result.utilization
    )


def test_link_loss_counts_a_pushout_once():
    # Four probes fill a 4-packet queue; each of the next four data packets
    # pushes one out, and the last two find no probe to push: 10 arrivals,
    # 6 losses.  The victims were counted as enqueued when they arrived.
    flow = FlowAccounting(1)
    qdisc = TwoLevelPriorityQueue(4)
    for seq in range(4):
        qdisc.enqueue(Packet(125, PROBE, flow, (), prio=1, seq=seq), 0.0)
    for seq in range(4, 10):
        qdisc.enqueue(Packet(125, DATA, flow, (), seq=seq), 0.0)
    assert (qdisc.enqueued, qdisc.drops, qdisc.pushouts) == (8, 6, 4)
    assert link_loss(qdisc) == pytest.approx(0.6)
    # Without push-out every drop is an arrival that never entered.
    fifo = DropTailFifo(4)
    for seq in range(10):
        fifo.enqueue(Packet(125, DATA, flow, (), seq=seq), 0.0)
    assert link_loss(fifo) == pytest.approx(0.6)


def test_probe_utilization_positive_for_eac(eac_result):
    assert eac_result.probe_utilization > 0.0
    # Slow-start probes are a small overhead relative to data.
    assert eac_result.probe_utilization < 0.15


def test_probe_utilization_zero_for_mbac():
    result = run_scenario(ScenarioConfig(source="EXP1", **FAST), MbacConfig(0.9))
    assert result.probe_utilization == 0.0


def test_blocked_property(eac_result):
    assert eac_result.blocked == eac_result.offered - eac_result.admitted


def test_per_class_dict_shape(eac_result):
    stats = eac_result.per_class["EXP1"]
    for key in ("offered", "admitted", "blocked", "blocking_probability",
                "loss_probability", "sent", "delivered", "dropped", "marked",
                "bytes_sent", "bytes_delivered"):
        assert key in stats
    assert stats["offered"] >= stats["admitted"]
    assert stats["sent"] >= stats["delivered"]


def test_prefill_disabled_is_respected():
    config = ScenarioConfig(source="EXP1", prefill=False, **FAST)
    result = run_scenario(config, None)
    # Without prefill and with a 40 s warmup on 30 s lifetimes, some load
    # exists but determinism is the main contract here.
    again = run_scenario(config, None)
    assert result.utilization == again.utilization
