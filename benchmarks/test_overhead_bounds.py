"""Overhead bounds: what strict mode, the process pool and ``repro.obs`` cost.

Speed itself is measured by ``python -m bench``; these tests only guard
ratios that the design promises.  Each one times its variants with
:func:`best_of`, which interleaves them round by round so allocator and
CPU-frequency drift hit every variant alike, and compares the minima.  The
shorter the run, the more rounds it gets: on a shared host a 50 ms run
needs about fifteen before its minimum stops moving.  Each test prints its
ratio, its bound and the margin between them (``pytest -rP``).
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
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.net.link import OutputPort
from repro.net.packet import DATA, FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.obs import ObsConfig, TraceRecorder
from repro.sim.engine import Simulator
from repro.units import mbps

_DESIGN = EndpointDesign(CongestionSignal.DROP, ProbeBand.IN_BAND,
                         ProbingScheme.SLOW_START)


def best_of(rounds, **variants):
    """Run each variant ``rounds`` times, interleaved.

    Returns ``(seconds, results)``: each variant's fastest wall time and
    its last return value.
    """
    seconds = dict.fromkeys(variants, float("inf"))
    results = {}
    for __ in range(rounds):
        for name, run in variants.items():
            start = time.perf_counter()
            results[name] = run()
            seconds[name] = min(seconds[name], time.perf_counter() - start)
    return seconds, results


def _report(label, ratio, bound):
    print(f"{label}: {ratio:.3f}x, bound {bound}x, margin {bound / ratio:.2f}x")


def _event_loop(strict):
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


def test_strict_mode_overhead():
    """``Simulator(strict=True)`` costs well under 2x on a 100k-event loop.

    The test suite runs every simulator strict by default, so this pins the
    price of that choice: strict mode adds one finite check and one
    monotonicity compare per dispatch, nothing algorithmic.
    """
    seconds, events = best_of(5, plain=lambda: _event_loop(False),
                              strict=lambda: _event_loop(True))
    assert min(events.values()) >= 100_000
    _report("strict / plain", seconds["strict"] / seconds["plain"], 2.0)
    assert seconds["strict"] < 2.0 * seconds["plain"]


def test_parallel_sweep_speedup():
    """Four independent runs: ``jobs=4`` equals serial, and is >= 2x faster
    on a host with >= 4 CPUs (smaller hosts only report the ratio).

    The result cache is off so every run is simulated.
    """
    config = ScenarioConfig(
        source="EXP1",
        interarrival=2.0,
        duration=100.0,
        warmup=40.0,
        lifetime_mean=30.0,
        link_rate_bps=mbps(2),
    )
    tasks = [(config.with_seed(seed), _DESIGN) for seed in (1, 2, 3, 4)]
    saved_dir = cache.get_cache_dir()
    cache.set_cache_dir(None)
    try:
        seconds, results = best_of(
            2, serial=lambda: parallel.run_many(tasks, jobs=1),
            pool=lambda: parallel.run_many(tasks, jobs=4),
        )
    finally:
        cache.set_cache_dir(saved_dir)

    assert results["pool"] == results["serial"]
    speedup = seconds["serial"] / seconds["pool"]
    cpus = os.cpu_count() or 1
    print(f"serial / jobs=4 on {cpus} CPUs: {speedup:.2f}x, "
          f"bound 2.0x on >= 4 CPUs")
    if cpus >= 4:
        assert speedup >= 2.0


def _datapath(recorder, packets=20_000):
    sim = Simulator(strict=False)
    port = OutputPort(sim, 1e9, DropTailFifo(packets + 1), 0.0)
    port.trace = recorder
    port.tx_trace = recorder
    sink = Sink(sim)
    flow = FlowAccounting(1)
    route = [port]
    for i in range(packets):
        flow.sent += 1
        port.send(flow.acquire(125, DATA, route, sink, seq=i))
    sim.run()
    return flow.delivered


def test_filtered_recorder_is_near_free():
    """A recorder that filters every category out costs < 1.5x no recorder.

    Per packet it adds one method call and one frozenset miss; CI noise
    dwarfs the true cost, hence the slack.  ``"never"`` matches no emitting
    site, so every emit exits at the category filter.
    """
    seconds, delivered = best_of(
        15, disabled=lambda: _datapath(None),
        filtered=lambda: _datapath(
            TraceRecorder(ObsConfig(categories=("never",)))),
    )
    assert delivered == {"disabled": 20_000, "filtered": 20_000}
    _report("filtered / disabled", seconds["filtered"] / seconds["disabled"],
            1.5)
    assert seconds["filtered"] < 1.5 * seconds["disabled"]


def test_timeseries_sampler_is_cheap():
    """A 1 s time-series sampler costs < 1.25x and moves no result.

    Each tick only reads component state and schedules its own next event
    (DESIGN.md §14): ~120 reads of a few dozen counters over a 120 s run.
    """
    def run(obs):
        return run_scenario(
            ScenarioConfig(source="EXP1", interarrival=2.0, seed=1,
                           duration=120.0, warmup=20.0, lifetime_mean=20.0,
                           link_rate_bps=mbps(2), obs=obs),
            _DESIGN,
        )

    sampled_obs = ObsConfig(metrics=False, trace=False, timeseries=True,
                            timeseries_interval=1.0)
    seconds, results = best_of(5, plain=lambda: run(None),
                               sampled=lambda: run(sampled_obs))
    sampled = results["sampled"]
    assert sampled.timeseries is not None
    assert sampled.utilization == results["plain"].utilization
    assert sampled.loss_probability == results["plain"].loss_probability
    _report("sampled / plain", seconds["sampled"] / seconds["plain"], 1.25)
    assert seconds["sampled"] < 1.25 * seconds["plain"]
