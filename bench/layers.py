"""Isolated drivers: one layer's public functions, timed on their own.

Each driver does a fixed amount of work through one layer's public API and
reports the host time per operation in reference-host units, best of
``rounds``.  A driver runs only in the traced run of the workloads whose
end-to-end time it predicts (``DRIVERS`` below); the ledger reports it as 0
everywhere else, which reads "not measured on this workload".
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, List, Tuple

from bench import ROOT, child_env
from bench.host import CALIB_REF_S, SpanTimer
from bench.workloads import (
    Harness,
    LinkSteady,
    Outcome,
    ProbeStorm,
    SweepCold,
    SweepInputs,
    canonical_json,
    program_settings,
)
from repro.core.controller import EndpointAdmissionControl
from repro.experiments import cache
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.mbac.measured_sum import MeasuredSumController
from repro.net.link import OutputPort
from repro.net.packet import DATA, PRIO_DATA, PRIO_PROBE, PROBE, FlowAccounting
from repro.net.queues import DropTailFifo, TwoLevelPriorityQueue
from repro.net.sink import Sink
from repro.net.topology import single_link
from repro.net.vq import VirtualQueue
from repro.obs import ObsConfig
from repro.obs.export import ObsDirWriter
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowRequest

SCENARIOS = ("link-steady", "probe-storm", "parkinglot-mbac")
SWEEPS = ("sweep-cold", "sweep-warm")

_BURSTS = 100
_BURST = 500


def per_op(timer: SpanTimer, rounds: int, body: Callable[[], int]) -> float:
    """Best reference-host seconds per operation; ``body`` returns its count."""
    best = float("inf")
    for _ in range(rounds):
        timer.begin()
        ops = body()
        span = timer.end()
        best = min(best, span.wall_ref / ops)
    timer.take()
    return best


def _noop() -> None:
    return None


# -- sim ----------------------------------------------------------------------

def sim_event() -> int:
    """``Simulator.call`` cascade: 100 interleaved timer chains, then ``run``."""
    sim = Simulator(strict=False)
    remaining = [100_000]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.call(0.001, tick)

    for _ in range(100):
        sim.call(0.0, tick)
    sim.run()
    return sim.events_processed


def sim_cancel() -> int:
    """``schedule`` + ``EventHandle.cancel`` + draining the garbage."""
    sim = Simulator(strict=False)
    handles = [sim.schedule(1.0 + i * 1e-6, _noop) for i in range(50_000)]
    for handle in handles:
        handle.cancel()
    sim.run()
    return len(handles)


# -- net ----------------------------------------------------------------------

def _push_bursts(sim: Simulator, route: List[OutputPort], mixed: bool) -> int:
    sink = Sink(sim)
    flow = FlowAccounting(1)
    first = route[0]
    for _ in range(_BURSTS):
        for i in range(_BURST):
            flow.sent += 1
            if mixed and i % 2:
                pkt = flow.acquire(125, PROBE, route, sink, prio=PRIO_PROBE, seq=i)
            else:
                pkt = flow.acquire(125, DATA, route, sink, prio=PRIO_DATA, seq=i)
            first.send(pkt)
        sim.run()
    if flow.delivered != _BURSTS * _BURST:
        raise RuntimeError(f"{flow.delivered} of {_BURSTS * _BURST} packets delivered")
    return flow.delivered


def net_fifo() -> int:
    """``OutputPort.send`` -> ``Sink`` over a drop-tail FIFO."""
    sim = Simulator(strict=False)
    port = OutputPort(sim, 1e9, DropTailFifo(_BURST + 1), 0.0)
    return _push_bursts(sim, [port], mixed=False)


def net_prio_vq() -> int:
    """Two-level priority queue with both markers, data and probes mixed."""
    sim = Simulator(strict=False)
    buffer_bytes = (_BURST + 1) * 125
    qdisc = TwoLevelPriorityQueue(
        _BURST + 1,
        data_marker=VirtualQueue(1e9, buffer_bytes),
        probe_marker=VirtualQueue(1e9, buffer_bytes),
    )
    return _push_bursts(sim, [OutputPort(sim, 1e9, qdisc, 0.0)], mixed=True)


def net_3hop() -> int:
    """A packet handed across three FIFO ports in a row."""
    sim = Simulator(strict=False)
    route = [
        OutputPort(sim, 1e9, DropTailFifo(_BURST + 1), 1e-4, name=f"hop{i}")
        for i in range(3)
    ]
    return _push_bursts(sim, route, mixed=False)


# -- traffic --------------------------------------------------------------------

def traffic_onoff() -> int:
    """Fifty EXP1 on-off sources into one fast port with an oversized FIFO."""
    sim = Simulator(strict=False)
    port = OutputPort(sim, 1e9, DropTailFifo(100_000), 0.0)
    sink = Sink(sim)
    spec = get_source_spec("EXP1")
    streams = RandomStreams(1)
    flows = [FlowAccounting(i) for i in range(50)]
    for i, flow in enumerate(flows):
        spec.build(sim, [port], sink, flow, streams.get(f"source-{i}")).start()
    sim.run(until=12.0)
    return sum(flow.sent for flow in flows)


# -- admission ------------------------------------------------------------------

def core_decision() -> int:
    """``EndpointAdmissionControl.handle`` on an idle link, probes included."""
    sim = Simulator(strict=False)
    _, design = ProbeStorm().inputs(1, 0)
    network, _ = single_link(sim, 10e6, design.qdisc_factory(10e6, 200))
    controller = EndpointAdmissionControl(sim, network, design, RandomStreams(1))
    cls = FlowClass("EXP1", get_source_spec("EXP1"))
    flows = 150
    for i in range(flows):
        # Six seconds apart: each 5 s probe finds the link idle again.
        request = FlowRequest(i + 1, cls, 6.0 * i, lifetime=0.01)
        sim.schedule_at(6.0 * i, controller.handle, request)
    sim.run()
    if len(controller.outcomes) != flows:
        raise RuntimeError("not every flow reached a decision")
    return flows


def mbac_decision() -> int:
    """``MeasuredSumController.handle`` with its per-port estimator sampling."""
    sim = Simulator(strict=False)
    network, _ = single_link(sim, 10e6, lambda: DropTailFifo(200))
    controller = MeasuredSumController(sim, network, RandomStreams(1), 0.9)
    cls = FlowClass("EXP1", get_source_spec("EXP1"))
    flows = 3000
    for i in range(flows):
        request = FlowRequest(i + 1, cls, 0.05 * i, lifetime=0.01)
        sim.schedule_at(0.05 * i, controller.handle, request)
    sim.run(until=0.05 * flows + 1.0)
    return flows


# -- experiments ------------------------------------------------------------------

def _full_digest(results: List[ScenarioResult]) -> str:
    joined = "\n".join(canonical_json(asdict(r)) for r in results)
    return hashlib.sha256(joined.encode()).hexdigest()


def fingerprint_ms(rounds: int) -> float:
    """First ``code_fingerprint()`` of a fresh process, best of ``rounds``."""
    code = (
        "import json, time\n"
        "from bench import host\n"
        "from repro.experiments import cache\n"
        "t = time.perf_counter()\n"
        "cache.code_fingerprint()\n"
        "s = time.perf_counter() - t\n"
        "host.calibrate()\n"
        "print(json.dumps({'s': s, 'calib': host.calibrate()}))\n"
    )
    best = float("inf")
    for _ in range(rounds):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        info = json.loads(proc.stdout.splitlines()[-1])
        best = min(best, info["s"] * CALIB_REF_S / info["calib"])
    return best * 1e3


def experiments_drivers(harness: Harness, rounds: int) -> Dict[str, float]:
    """Cache key, both cache tiers, pickle and export around one sweep result."""
    timer = harness.timer
    config, spec = SweepCold().inputs(1, 0)[0]
    result = run_scenario(config, spec)
    cache.code_fingerprint()  # keyed calls below must not pay the first one

    def run_key() -> int:
        for _ in range(3000):
            cache.run_key(config, spec)
        return 3000

    def store() -> int:
        for _ in range(300):
            cache.store(config, spec, result)
        return 300

    def disk_hit() -> int:
        for _ in range(300):
            cache.clear_cache(disk=False)
            if cache.lookup(config, spec)[1] != "disk":
                raise RuntimeError("expected a disk-tier hit")
        return 300

    def memo_hit() -> int:
        for _ in range(100_000):
            cache.lookup(config, spec)
        return 100_000

    def pickled() -> int:
        for _ in range(1000):
            pickle.loads(pickle.dumps(result))
        return 1000

    writer = ObsDirWriter(harness.fresh_dir("export"))

    def export() -> int:
        for i in range(300):
            writer.write_run(
                i, result.controller_name, result.seed, trace=result.trace,
                metrics=result.metrics, timeseries=result.timeseries,
            )
        writer.write_manifest()
        return 300

    out = {"experiments.fingerprint_ms": fingerprint_ms(rounds)}
    with program_settings(harness.fresh_dir("cache"), None):
        out["experiments.run_key_us"] = per_op(timer, rounds, run_key) * 1e6
        out["experiments.disk_store_us"] = per_op(timer, rounds, store) * 1e6
        out["experiments.disk_hit_us"] = per_op(timer, rounds, disk_hit) * 1e6
        out["experiments.memo_hit_us"] = per_op(timer, rounds, memo_hit) * 1e6
        cache.clear_cache(disk=False)
    out["experiments.pickle_us"] = per_op(timer, rounds, pickled) * 1e6
    out["obs.export_ms_per_run"] = per_op(timer, rounds, export) * 1e3
    return out


def jobs2(
    harness: Harness, inputs: SweepInputs, serial: Outcome,
) -> Tuple[float, float, bool]:
    """A sweep-cold grid with two workers, against the same grid run serially.

    ``serial`` is the traced run's counted pass of ``inputs``.  Returns
    (two-worker wall, speed-up over serial, result streams hash equal).
    Two workers on two shared cores measure the scheduler as much as the
    program, so this is reported and never gated.
    """
    timer = harness.timer
    timer.begin()
    timer.pause()
    results, _ = SweepCold().sweep(
        inputs, harness, harness.fresh_dir("cache"), harness.fresh_dir("obs"),
        span_per_task=False, jobs=2,
    )
    wall = timer.end().wall_ref
    timer.take()
    serial_wall = sum(s.wall_ref for s in serial.spans)
    return wall, serial_wall / wall, _full_digest(results) == _full_digest(serial.results)


def obs_ratios(harness: Harness, rounds: int) -> Dict[str, float]:
    """link-steady with the full trace, and with the sampler only, over plain.

    Half a call long and best of ``rounds`` interleaved rounds each.
    """
    config, design = LinkSteady().inputs(1, 0)
    config = replace(config, warmup=6.0, duration=15.0)
    variants = {
        "plain": config,
        "trace": replace(config, obs=ObsConfig(metrics=True, trace=True)),
        "timeseries": replace(config, obs=ObsConfig(
            metrics=False, trace=False, timeseries=True, timeseries_interval=1.0,
        )),
    }
    wall = dict.fromkeys(variants, float("inf"))
    for _ in range(rounds):
        for name, variant in variants.items():
            harness.timer.begin()
            run_scenario(variant, design)
            wall[name] = min(wall[name], harness.timer.end().wall_ref)
    harness.timer.take()
    return {
        "obs.trace_on_ratio": wall["trace"] / wall["plain"],
        "obs.timeseries_on_ratio": wall["timeseries"] / wall["plain"],
    }


#: name -> (workloads whose traced run measures it, body, unit factor).
DRIVERS: Dict[str, Tuple[Tuple[str, ...], Callable[[], int], float]] = {
    "sim.ns_per_event": (SCENARIOS, sim_event, 1e9),
    "sim.ns_per_cancel": (SCENARIOS, sim_cancel, 1e9),
    "net.ns_per_pkt_fifo": (("link-steady",), net_fifo, 1e9),
    "net.ns_per_pkt_prio_vq": (("probe-storm",), net_prio_vq, 1e9),
    "net.ns_per_pkt_3hop": (("parkinglot-mbac",), net_3hop, 1e9),
    "traffic.ns_per_pkt_onoff": (("link-steady",), traffic_onoff, 1e9),
    "core.us_per_decision": (("probe-storm",), core_decision, 1e6),
    "mbac.us_per_decision": (("parkinglot-mbac",), mbac_decision, 1e6),
}

def measure(
    workload: str, harness: Harness, quick: bool, inputs: Any, counted: Outcome,
) -> Tuple[Dict[str, float], List[str]]:
    """The isolated metrics this workload's traced run measures, and any
    failed checks.

    ``counted`` is the run's counted pass of ``inputs``; the two-worker
    sweep is compared against it.
    """
    rounds = 1 if quick else 3
    out: Dict[str, float] = {}
    failures: List[str] = []
    if workload == "sweep-cold":
        # First, so the pool's workers are long gone when the run exits.
        wall, speedup, equal = jobs2(harness, inputs, counted)
        out["experiments.jobs2_wall_s"] = wall
        out["experiments.jobs2_speedup"] = speedup
        if not equal:
            failures.append("jobs=2 result stream differs from the serial one")
    for name, (where, body, factor) in DRIVERS.items():
        if workload in where:
            out[name] = per_op(harness.timer, rounds, body) * factor
    if workload in SWEEPS:
        out.update(experiments_drivers(harness, rounds))
        out.update(obs_ratios(harness, rounds=1 if quick else 2))
    return out, failures
