"""Closed-form referees: the packet engine against queueing theory.

Each test drives a bare port, not a scenario, and compares a measured
quantity with a formula that owes nothing to the simulator.  The
tolerance is a 99 % Student-t interval over independent seeds, so it
comes from the measured spread and is never widened by hand; a referee
that disagrees is a finding for EXPERIMENTS.md "Known gaps".
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest
from scipy import stats

from repro.net.packet import FlowAccounting
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.conftest import make_link, make_packet

SEEDS = range(1, 9)
ARRIVALS = 20_000
BUFFER = 4  # FIFO capacity in packets
SERVICE_S = 1e-3  # 125 bytes at 1 Mb/s


def md1k_blocking(rho: float, k: int) -> float:
    """Blocking probability of M/D/1/K (system size ``k``, unit service).

    The number left behind at departure epochs is a Markov chain on
    ``0 .. k-1`` whose steps are the Poisson(``rho``) arrivals during one
    service, capped by the full system.  With ``pi`` its stationary law,
    the time-average probability of a full system is ``1 - 1/(pi0 + rho)``
    (Gross & Harris, M/G/1/K), and by PASTA that is the blocking
    probability.
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
    return 1.0 - 1.0 / (pi[0] + rho)


def measured_loss(rho: float, seed: int) -> float:
    """Loss fraction of Poisson arrivals of 125-byte packets at load ``rho``."""
    sim = Simulator()
    port, sink = make_link(sim, rate_bps=1e6, capacity=BUFFER)
    flow = FlowAccounting(1)
    rng = RandomStreams(seed).get("arrivals")
    gaps = iter(rng.exponential(SERVICE_S / rho, ARRIVALS).tolist())

    def arrive() -> None:
        port.send(make_packet(flow, [port], sink))
        gap = next(gaps, None)
        if gap is not None:
            sim.call(gap, arrive)

    sim.call(next(gaps), arrive)
    sim.run()
    qdisc = port.qdisc
    return qdisc.drops / (qdisc.drops + qdisc.enqueued)


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
    losses: List[float] = [measured_loss(rho, seed) for seed in SEEDS]
    mean = float(np.mean(losses))
    half_width = (
        stats.t.ppf(0.995, len(losses) - 1)
        * float(np.std(losses, ddof=1)) / math.sqrt(len(losses))
    )
    assert abs(mean - expected) <= half_width, (
        f"rho={rho}: measured {mean:.5f} +- {half_width:.5f}, "
        f"M/D/1/{BUFFER + 1} {expected:.5f}"
    )
