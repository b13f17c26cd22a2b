"""Closed-form referees: the packet engine against queueing theory.

Each test drives a bare port, not a scenario, and compares a measured
quantity with a formula that owes nothing to the simulator.  The
tolerance is a 99 % interval over independent seeds — Student-t for a
mean, Clopper–Pearson for a probability — so it comes from the measured
spread and is never widened by hand; a referee that disagrees is a
finding for EXPERIMENTS.md "Known gaps".
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np
import numpy.typing as npt
import pytest
from scipy import stats

from repro.core.analysis import (
    acceptance_probability,
    probe_packet_count,
    rule_of_thumb_floor_for_packets,
)
from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.core.endpoint import EndpointAgent, FlowOutcome
from repro.net.link import OutputPort
from repro.net.packet import FlowAccounting, Packet
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowRequest
from repro.traffic.video import SyntheticVideoSource, VideoTraceModel

from tests.conftest import make_link, make_packet

SEEDS = range(1, 9)
ARRIVALS = 20_000
BUFFER = 4  # FIFO capacity in packets
SERVICE_S = 1e-3  # 125 bytes at 1 Mb/s


def md1k_occupancy(rho: float, k: int) -> npt.NDArray[np.float64]:
    """Time-average law of the number in an M/D/1/K system (size ``k``,
    unit service), as ``p[0..k]``.

    The number left behind at departure epochs is a Markov chain on
    ``0 .. k-1`` whose steps are the Poisson(``rho``) arrivals during one
    service, capped by the full system.  With ``pi`` its stationary law,
    ``p[n] = pi[n] / (pi0 + rho)`` for ``n < k`` and the full system has
    ``p[k] = 1 - 1/(pi0 + rho)`` (Gross & Harris, M/G/1/K).
    """
    arrivals = [math.exp(-rho)]
    for n in range(1, k):
        arrivals.append(arrivals[-1] * rho / n)
    chain = np.zeros((k, k))
    for i in range(k):
        start = max(i - 1, 0)  # from 0 the server first waits for an arrival
        for j in range(start, k - 1):
            chain[i, j] = arrivals[j - start]
        chain[i, k - 1] = 1.0 - chain[i, : k - 1].sum()
    balance = np.vstack([(chain.T - np.eye(k))[:-1], np.ones(k)])
    pi = np.linalg.solve(balance, np.eye(k)[-1])
    return np.append(pi / (pi[0] + rho), 1.0 - 1.0 / (pi[0] + rho))


def md1k_blocking(rho: float, k: int) -> float:
    """Blocking probability of M/D/1/K: by PASTA, the time-average
    probability of a full system."""
    return float(md1k_occupancy(rho, k)[-1])


def md1k_mean_number(rho: float, k: int) -> float:
    """Mean number in an M/D/1/K system, queued plus in service."""
    p = md1k_occupancy(rho, k)
    return float(np.arange(k + 1) @ p)


@lru_cache(maxsize=None)
def measured_md1k(rho: float, seed: int) -> Tuple[float, float]:
    """(loss fraction, mean number in system) of Poisson arrivals of
    125-byte packets at load ``rho``.

    The mean number comes through Little's law from what the bare port
    records: ``L = lambda (1 - loss) W``, with ``lambda = rho / S`` and
    ``W`` the sink's mean delay of the packets that got in (the port has
    no propagation delay, so that delay is queueing plus service).
    """
    sim = Simulator()
    port, sink = make_link(sim, rate_bps=1e6, capacity=BUFFER)
    flow = FlowAccounting(1)
    rng = RandomStreams(seed).get("arrivals")
    gaps = iter(rng.exponential(SERVICE_S / rho, ARRIVALS).tolist())

    def arrive() -> None:
        port.send(make_packet(flow, [port], sink, created=sim.now))
        gap = next(gaps, None)
        if gap is not None:
            sim.call(gap, arrive)

    sim.call(next(gaps), arrive)
    sim.run()
    qdisc = port.qdisc
    loss = qdisc.drops / (qdisc.drops + qdisc.enqueued)
    return loss, rho / SERVICE_S * (1.0 - loss) * sink.mean_latency


def t_interval(samples: Sequence[float]) -> Tuple[float, float]:
    """Mean and 99 % Student-t half-width over independent seeds."""
    half_width = (
        stats.t.ppf(0.995, len(samples) - 1)
        * float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    )
    return float(np.mean(samples)), half_width


def test_md1k_chain_limits() -> None:
    # K = 1 is M/D/1/1: a departure always leaves the system empty, so
    # pi0 = 1 and blocking is the Erlang loss rho / (1 + rho).
    assert md1k_blocking(0.8, 1) == pytest.approx(0.8 / 1.8)
    # A deep buffer overloaded by rho loses the excess, 1 - 1/rho.
    assert md1k_blocking(1.2, 200) == pytest.approx(1 - 1 / 1.2, abs=1e-6)


@pytest.mark.parametrize("rho", [0.8, 1.2])
def test_drop_tail_fifo_matches_md1k_loss(rho: float) -> None:
    # The port dequeues a packet when its serialisation starts, so the
    # system holds the FIFO's packets plus the one in service.
    expected = md1k_blocking(rho, BUFFER + 1)
    mean, half_width = t_interval([measured_md1k(rho, seed)[0] for seed in SEEDS])
    assert abs(mean - expected) <= half_width, (
        f"rho={rho}: measured {mean:.5f} +- {half_width:.5f}, "
        f"M/D/1/{BUFFER + 1} {expected:.5f}"
    )


def test_md1k_mean_number_limits() -> None:
    # M/D/1/1 holds one packet a fraction rho / (1 + rho) of the time.
    assert md1k_mean_number(0.8, 1) == pytest.approx(0.8 / 1.8)
    # Overloaded by rho with a deep buffer, the system sits near full.
    assert md1k_mean_number(1.2, 200) > 190


@pytest.mark.parametrize("rho", [0.8, 1.2])
def test_drop_tail_fifo_matches_md1k_mean_number(rho: float) -> None:
    expected = md1k_mean_number(rho, BUFFER + 1)
    mean, half_width = t_interval([measured_md1k(rho, seed)[1] for seed in SEEDS])
    assert abs(mean - expected) <= half_width, (
        f"rho={rho}: measured L {mean:.4f} +- {half_width:.4f}, "
        f"M/D/1/{BUFFER + 1} {expected:.4f}"
    )


def emitted_packets(seed: int, horizon: float) -> Tuple[List[Tuple[float, int]], int]:
    """(created, size) of every packet a video source emits, read at the
    sink of a port fast enough to lose none, plus the packets its token
    bucket discarded.  The movie runs hotter (900 kb/s mean) than the
    catalog's so the default (800 kb/s, 25 kB) bucket binds."""
    sim = Simulator()
    port, _ = make_link(sim, rate_bps=100e6, capacity=100_000)
    emitted: List[Tuple[float, int]] = []

    def record(pkt: Packet) -> None:
        emitted.append((pkt.created, pkt.size))

    sink = Sink(sim, on_receive=record)
    rng = RandomStreams(seed).get("video")
    source = SyntheticVideoSource(sim, [port], sink, FlowAccounting(1), rng,
                                  model=VideoTraceModel(mean_rate_bps=900e3))
    source.start()
    sim.run(until=horizon)
    source.stop()
    return emitted, source.shaped_packets


@pytest.mark.parametrize("seed", SEEDS)
def test_video_source_conforms_to_its_token_bucket(seed: int) -> None:
    """In every window [t_i, t_j], emitted bytes <= b + r (t_j - t_i).

    With prefix sums ``S`` and ``A_j = S_j - r t_j``, ``B_i = S_(i-1) -
    r t_i``, the worst window ending at ``j`` exceeds ``r (t_j - t_i)`` by
    ``A_j - min(B_i for i <= j)``, so one pass checks all O(n^2) windows.
    """
    emitted, shaped = emitted_packets(seed, horizon=120.0)
    assert shaped > 0, "the bucket never clipped: the bound is not exercised"
    created = np.array([t for t, _ in emitted])
    sizes = np.array([size for _, size in emitted], dtype=np.float64)
    rate = 800e3 / 8  # the source's default (800 kb/s, 25 kB) bucket
    depth = 25_000
    totals = np.cumsum(sizes)
    ends = totals - rate * created
    starts = np.minimum.accumulate(totals - sizes - rate * created)
    excess = float(np.max(ends - starts))
    # The slack absorbs float rounding in the bucket's token arithmetic.
    assert excess <= depth + 1e-6, f"window exceeds b + rt by {excess - depth:.3f} B"


# -- epsilon = 0 acceptance vs (1 - l)^n ----------------------------------------

PROBE_CLASS = FlowClass(label="EXP1", spec=get_source_spec("EXP1"))
#: Simple in-band drop probing at epsilon = 0, shortened to 0.25 s so a
#: probe is 64 packets (``rT/P`` is a whole number per interval).
PROBE_DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                              ProbingScheme.SIMPLE, epsilon=0.0,
                              probe_duration=0.25)
PROBE_TRIALS = 400


class BernoulliLoss:
    """An i.i.d. wire-loss model: every packet is dropped with ``rate``."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self._rng = rng

    def should_drop(self) -> bool:
        return bool(self._rng.random() < self.rate)


def probe_outcome(loss_rate: float, seed: int) -> FlowOutcome:
    """The decision of one probe over a bare port that loses nothing but
    what its Bernoulli ``loss_model`` drops (the port is 40x the probe
    rate and the buffer holds the whole probe)."""
    sim = Simulator()
    port = OutputPort(sim, 1e7, DropTailFifo(1000), 0.0, name="bare")
    streams = RandomStreams(seed)
    port.loss_model = BernoulliLoss(loss_rate, streams.get("loss"))
    decided: List[FlowOutcome] = []
    agent = EndpointAgent(
        sim, FlowRequest(1, PROBE_CLASS, 0.0, 1.0), PROBE_DESIGN, [port],
        Sink(sim), streams.get("data"), decided.append, lambda _: None,
    )
    agent.begin()
    sim.run(until=PROBE_DESIGN.probe_duration + PROBE_DESIGN.settle_time)
    assert len(decided) == 1
    return decided[0]


def test_lossless_probe_sends_the_formula_packet_count() -> None:
    spec = PROBE_CLASS.spec
    outcome = probe_outcome(0.0, seed=1)
    assert outcome.admitted
    assert outcome.probe["sent"] == probe_packet_count(
        spec.token_rate_bps, PROBE_DESIGN.probe_duration, spec.packet_bytes)


@pytest.mark.parametrize("floor_factor", [0.5, 1.0, 2.0])
def test_epsilon_zero_acceptance_matches_closed_form(floor_factor: float) -> None:
    """P(admit) of an epsilon = 0 probe is ``(1 - l)^n``: at the rule-of-
    thumb floor exactly one half, and ``acceptance_probability`` says so."""
    spec = PROBE_CLASS.spec
    sent = probe_outcome(0.0, seed=1).probe["sent"]
    loss = floor_factor * rule_of_thumb_floor_for_packets(sent)
    expected = (1.0 - loss) ** sent
    assert acceptance_probability(
        loss, spec.token_rate_bps, PROBE_DESIGN.probe_duration, spec.packet_bytes,
    ) == pytest.approx(expected)
    admitted = sum(
        probe_outcome(loss, seed).admitted for seed in range(1, PROBE_TRIALS + 1)
    )
    interval = stats.binomtest(admitted, PROBE_TRIALS).proportion_ci(0.99)
    assert interval.low <= expected <= interval.high, (
        f"l={loss:.5f}: admitted {admitted}/{PROBE_TRIALS}, 99 % interval "
        f"[{interval.low:.3f}, {interval.high:.3f}], (1 - l)^{sent} = {expected:.3f}"
    )
