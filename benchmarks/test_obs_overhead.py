"""Overhead bound for the ``repro.obs`` instrumentation.

The observability contract is that the *disabled* path (``trace`` left
``None``) costs one attribute check per hot-path site, and that an
attached-but-fully-filtered recorder (every category filtered out at
``emit``) stays cheap enough to leave on while hunting a bug.  This
benchmark pins both: the datapath throughput test from the micro suite
is rerun under three configurations, interleaved min-of-N so allocator
and frequency drift hit all variants equally.
"""

import time

from repro.experiments.report import format_table
from repro.net.link import OutputPort
from repro.net.packet import DATA, FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.obs import ObsConfig, TraceRecorder
from repro.sim.engine import Simulator

_PACKETS = 20_000
_ROUNDS = 5

#: Generous bound on filtered-recorder slowdown over the disabled path:
#: per packet it adds one method call and one frozenset miss.  CI noise
#: dwarfs the true cost, hence the slack.
_FILTERED_BOUND = 1.5


def _run_datapath(recorder):
    sim = Simulator(strict=False)
    port = OutputPort(sim, 1e9, DropTailFifo(_PACKETS + 1), 0.0)
    port.trace = recorder
    port.tx_trace = recorder
    sink = Sink(sim)
    flow = FlowAccounting(1)
    route = [port]
    for i in range(_PACKETS):
        flow.sent += 1
        port.send(flow.acquire(125, DATA, route, sink, seq=i))
    sim.run()
    assert flow.delivered == _PACKETS
    return sim


def _filtered_recorder():
    # "never" matches no emitting site, so every emit exits at the
    # category filter — the cheapest on-path a recorder can be.
    return TraceRecorder(ObsConfig(categories=("never",)))


def _sampled_recorder():
    return TraceRecorder(ObsConfig(sample_every=(("tx", 100),)))


def test_disabled_obs_is_near_free(report):
    variants = {
        "disabled": lambda: None,
        "filtered": _filtered_recorder,
        "sampled-1/100": _sampled_recorder,
    }
    best = {name: float("inf") for name in variants}
    for _ in range(_ROUNDS):
        for name, make in variants.items():
            start = time.perf_counter()
            _run_datapath(make())
            best[name] = min(best[name], time.perf_counter() - start)

    disabled = best["disabled"]
    rows = [
        (name, seconds,
         "--" if name == "disabled" else f"{seconds / disabled - 1.0:+.1%}")
        for name, seconds in best.items()
    ]
    report.record(
        "obs_overhead",
        format_table(
            ("variant", "seconds", "vs disabled"),
            rows,
            title="-- repro.obs datapath overhead (20k packets, min of 5)",
        ),
    )
    assert best["filtered"] < _FILTERED_BOUND * disabled, (
        f"filtered recorder {best['filtered']:.4f}s vs "
        f"disabled {disabled:.4f}s exceeds {_FILTERED_BOUND}x"
    )
