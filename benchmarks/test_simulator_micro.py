"""Micro-benchmarks of the simulation substrate itself.

Not paper artifacts — these measure the engine and datapath throughput
that every experiment's wall-clock time rests on, so regressions in the
hot path show up here first.  The parallel-sweep benchmark additionally
checks that the process-pool fan-out both preserves determinism and
actually buys wall-clock time on multi-core runners.
"""

import os
import time

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.experiments import cache, parallel
from repro.experiments.report import format_table
from repro.experiments.runner import ScenarioConfig
from repro.net.link import OutputPort
from repro.net.packet import DATA, FlowAccounting, Packet
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.sim.engine import Simulator
from repro.units import mbps


def test_engine_event_throughput(benchmark):
    """Schedule-and-dispatch rate of the bare event loop."""

    def run_events():
        sim = Simulator()
        remaining = [100_000]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.call(0.001, tick)

        for __ in range(100):
            sim.call(0.0, tick)
        sim.run()
        return sim.events_processed

    events = benchmark.pedantic(run_events, rounds=3, iterations=1)
    assert events >= 100_000


def test_strict_mode_overhead(benchmark, report):
    """Dispatch-validation cost of ``Simulator(strict=True)``.

    The test suite runs every simulator strict by default, so this pins
    the price of that choice: the same 100k-event loop, unchecked vs
    checked.  The overhead must stay well under 2x — strict mode adds one
    finite check, one monotonicity compare, and one garbage-ratio test
    per dispatch, nothing algorithmic.
    """

    def run_events(strict):
        sim = Simulator(strict=strict)
        remaining = [100_000]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.call(0.001, tick)

        for __ in range(100):
            sim.call(0.0, tick)
        sim.run()
        return sim.events_processed

    plain_rounds = []
    for __ in range(3):
        start = time.perf_counter()
        run_events(False)
        plain_rounds.append(time.perf_counter() - start)
    plain_seconds = min(plain_rounds)
    events = benchmark.pedantic(run_events, args=(True,), rounds=3, iterations=1)
    strict_seconds = benchmark.stats.stats.min
    overhead = strict_seconds / plain_seconds - 1.0
    report.record(
        "strict_mode_overhead",
        format_table(
            ("mode", "seconds", "overhead"),
            [
                ("default", plain_seconds, "--"),
                ("strict", strict_seconds, f"{overhead:+.1%}"),
            ],
            title="-- strict-mode dispatch validation overhead",
        ),
    )
    assert events >= 100_000
    assert strict_seconds < 2.0 * plain_seconds


def test_datapath_packet_throughput(benchmark):
    """Packets/second through enqueue -> serialize -> deliver."""

    def run_packets():
        sim = Simulator()
        port = OutputPort(sim, 1e9, DropTailFifo(1000), 0.0)
        sink = Sink(sim)
        flow = FlowAccounting(1)

        def offer(n):
            if n <= 0:
                return
            flow.sent += 1
            port.send(Packet(125, DATA, flow, [port], sink))
            sim.call(1e-6, offer, n - 1)

        offer(50_000)
        sim.run()
        return flow.delivered

    delivered = benchmark.pedantic(run_packets, rounds=3, iterations=1)
    assert delivered == 50_000


def test_parallel_sweep_speedup(benchmark, report):
    """Serial vs process-pool fan-out of four independent scenario runs.

    The result cache is disabled around the measured sections so every
    run is actually simulated.  The parallel results must equal the
    serial ones exactly (the runner orders by task, not completion); the
    >= 2x speedup assertion applies only on runners with >= 4 CPUs —
    smaller machines still record their measured numbers in the report.
    """
    design = EndpointDesign(
        CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
    )
    config = ScenarioConfig(
        source="EXP1",
        interarrival=2.0,
        duration=100.0,
        warmup=40.0,
        lifetime_mean=30.0,
        link_rate_bps=mbps(2),
    )
    tasks = [(config.with_seed(seed), design) for seed in (1, 2, 3, 4)]
    saved_dir = cache.get_cache_dir()
    cache.set_cache_dir(None)
    try:
        start = time.perf_counter()
        expected = parallel.run_many(tasks, jobs=1)
        serial_seconds = time.perf_counter() - start

        def fanned_out():
            return parallel.run_many(tasks, jobs=4)

        results = benchmark.pedantic(fanned_out, rounds=3, iterations=1)
        parallel_seconds = benchmark.stats.stats.min
    finally:
        cache.set_cache_dir(saved_dir)

    assert results == expected
    speedup = serial_seconds / parallel_seconds
    cpus = os.cpu_count() or 1
    report.record(
        "parallel_sweep_speedup",
        format_table(
            ("mode", "jobs", "seconds", "speedup"),
            [
                ("serial", 1, serial_seconds, 1.0),
                ("process pool", 4, parallel_seconds, speedup),
            ],
            title=f"-- parallel sweep micro-benchmark ({cpus} CPUs)",
        ),
    )
    if cpus >= 4:
        assert speedup >= 2.0
