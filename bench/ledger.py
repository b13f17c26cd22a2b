"""The traced run: exact counts, the by-layer cost ledger, isolated drivers.

Three passes over the workload's first inputs, all outside the end-to-end
numbers (those are taken with every hook off):

* *counted* — the calls again with the end-of-run metrics harvest on; the
  counts are deterministic and compared between commits with tolerance 0.
  These calls run unprofiled, so they are also the untraced reference of
  ``trace.overhead_ratio``.
* *profiled* — one call with the engine's public profile hook (scenario
  workloads) or ``parallel.set_profile`` plus timing wrappers around the
  cache and export entry points (sweeps).  Its wall time is split into rows
  that add up to it: callbacks by the package that defines them, the
  profile hook's own cost, task build, the engine loop (the remainder of
  compute), cache lookup, cache store, obs export, and harness remainder.
* *isolated* — :mod:`bench.layers`.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from bench import layers
from bench.metrics import PER_LAYER
from bench.workloads import Harness, Outcome, Workload
from repro.experiments import cache, parallel
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.obs.export import ObsDirWriter
from repro.obs.profile import CallbackProfile, ProfileRow

#: Packages whose callbacks get a ledger row of their own.
CALLBACK_LAYERS = ("traffic", "net", "core", "mbac", "faults", "obs")
#: Searched too, so their callbacks land in ``other.cb_s`` knowingly.
_OTHER_LAYERS = ("sim", "experiments")

#: Ledger rows, in the order they are printed; they sum to the traced wall.
LEDGER_ROWS = tuple(f"{layer}.cb_s" for layer in CALLBACK_LAYERS) + (
    "other.cb_s", "sim.loop_s", "trace.overhead_s", "run.build_s",
    "experiments.lookup_s", "experiments.store_s", "obs.export_s",
    "experiments.other_s",
)

def callback_owners() -> Dict[str, str]:
    """Top-level class or function name -> the repro package defining it."""
    owners: Dict[str, str] = {}
    for layer in CALLBACK_LAYERS + _OTHER_LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        names = [package.__name__] + [
            info.name for info in pkgutil.walk_packages(
                package.__path__, prefix=f"{package.__name__}."
            )
            if not info.name.endswith("__main__")
        ]
        for name in names:
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if defined_here and (inspect.isclass(obj) or inspect.isfunction(obj)):
                    owners.setdefault(attr, layer)
    return owners


def rows_by_layer(rows: Sequence[ProfileRow]) -> Dict[str, float]:
    """Profile rows summed per package of the callback's class."""
    owners = callback_owners()
    out = dict.fromkeys([f"{layer}.cb_s" for layer in CALLBACK_LAYERS], 0.0)
    out["other.cb_s"] = 0.0
    for qualname, seconds, _calls in rows:
        layer = owners.get(qualname.split(".")[0], "other")
        key = f"{layer}.cb_s" if layer in CALLBACK_LAYERS else "other.cb_s"
        out[key] += seconds
    return out


def hook_cost_per_event() -> float:
    """Seconds the profile hook adds per event: two clock reads, one record."""
    profile = CallbackProfile(time.perf_counter)
    clock, record = profile.clock, profile.record
    fn = hook_cost_per_event
    n = 200_000
    best = float("inf")
    for _round in range(3):
        began = time.perf_counter()
        for _ in range(n):
            key = getattr(fn, "__qualname__", None) or repr(fn)
            start = clock()
            record(key, clock() - start)
        with_hook = time.perf_counter() - began
        began = time.perf_counter()
        for _ in range(n):
            pass
        best = min(best, (with_hook - (time.perf_counter() - began)) / n)
    return best


def counter_sum(result: ScenarioResult, name: str) -> float:
    """Sum over label sets of one counter in a result's metrics snapshot."""
    metrics = result.metrics or {}
    return sum(c["value"] for c in metrics.get("counters", ()) if c["name"] == name)


def computed_results(outcome: Outcome) -> List[ScenarioResult]:
    """The results of a call that were simulated, not read from the cache."""
    if not outcome.events:
        return outcome.results
    return [
        outcome.results[e.index] for e in outcome.events
        if e.source == "run" and e.index < len(outcome.results)
    ]


def exact_counts(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Deterministic work counts of the counted calls, summed."""
    fresh = [r for o in outcomes for r in computed_results(o)]

    def total(name: str) -> float:
        return sum(counter_sum(r, name) for r in fresh)

    events = total("sim_events_dispatched")
    scheduled = total("sim_events_scheduled")
    cancelled = total("sim_events_cancelled")
    packets = total("port_data_packets") + total("port_probe_packets")
    last = outcomes[-1]
    return {
        "sim.events": events,
        "sim.scheduled": scheduled,
        "sim.cancelled": cancelled,
        "sim.compactions": total("sim_compactions"),
        "net.pkts_tx": packets,
        "net.fault_drops": total("port_fault_drops"),
        "sim.events_per_pkt": events / packets if packets else 0.0,
        "sim.cancel_share": cancelled / scheduled if scheduled else 0.0,
        "core.flows_offered": total("flows_offered"),
        "core.flows_admitted": total("flows_admitted"),
        "core.probe_retries": total("probe_retries"),
        "core.timed_out": total("flows_timed_out"),
        "faults.applied": total("fault_events_applied"),
        "mbac.samples": total("mbac_samples"),
        "experiments.tasks": float(sum(o.tasks for o in outcomes)),
        "experiments.disk_hits": float(sum(
            1 for o in outcomes for e in o.events if e.source == "disk"
        )),
        "experiments.cache_bytes": float(last.cache_bytes),
        "obs.trace_records": float(sum(
            len(r.trace or ()) for o in outcomes for r in o.results
        )),
        "obs.export_bytes": float(last.export_bytes),
    }


@contextmanager
def timed_entry_points(sums: Dict[str, float]) -> Iterator[None]:
    """Wrap the cache and export entry points the sweep calls; time each."""
    targets = (
        (cache, "lookup", "experiments.lookup_s"),
        (cache, "store", "experiments.store_s"),
        (ObsDirWriter, "write_run", "obs.export_s"),
        (ObsDirWriter, "write_manifest", "obs.export_s"),
    )

    def wrap(original: Any, key: str) -> Any:
        def timed(*args: Any, **kwargs: Any) -> Any:
            began = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sums[key] += time.perf_counter() - began
        return timed

    with ExitStack() as stack:
        for owner, attr, key in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original, key))
            stack.callback(setattr, owner, attr, original)
        yield


def profiled_call(
    workload: Workload, inputs: Any, harness: Harness,
) -> Tuple[Outcome, Dict[str, float], float]:
    """One call with every hook on: (outcome, raw ledger parts, compute s)."""
    sums = dict.fromkeys(
        ["experiments.lookup_s", "experiments.store_s", "obs.export_s"], 0.0
    )
    profile = CallbackProfile(time.perf_counter)
    parallel.set_profile(True)
    try:
        with timed_entry_points(sums):
            outcome = workload.call(inputs, harness, profile=profile)
    finally:
        parallel.set_profile(False)
    rows: List[ProfileRow] = list(profile.snapshot())
    wall = sum(s.wall for s in outcome.spans)
    compute = wall
    if outcome.events:
        # A sweep: callbacks and compute time arrive on the progress stream.
        runs = [e for e in outcome.events if e.source == "run"]
        rows = [row for e in runs for row in e.profile]
        compute = sum(e.seconds for e in runs)
    sums.update(rows_by_layer(rows))
    return outcome, sums, compute


def build_seconds(workload: Workload, inputs: Any, harness: Harness) -> float:
    """Topology + controller + prefill of the first task, best of three."""
    config, spec = workload.first_task(inputs)
    empty = replace(config, warmup=1e-6, duration=2e-6)

    def build() -> int:
        run_scenario(empty, spec)
        return 1

    return layers.per_op(harness.timer, 3, build)


def trace_run(
    workload: Workload, seed: int, harness: Harness,
) -> Tuple[Dict[str, float], int, int, List[str], str]:
    """All per-layer metrics of one workload.

    Returns (metrics, attempted, failed, failure messages, physics digest of
    the profiled call — the inputs of call 0, so it must equal what the
    untraced runs print for that call).
    """
    timer = harness.timer
    workload.prepare(seed, harness)
    counted: List[Outcome] = []
    calls = 1 if workload.quick else workload.count_calls
    counted_inputs = [
        workload.counted(workload.inputs(seed, call)) for call in range(calls)
    ]
    for inputs in counted_inputs:
        counted.append(workload.call(inputs, harness))
    metrics = exact_counts(counted)

    first = workload.inputs(seed, 0)
    traced, parts, compute = profiled_call(workload, first, harness)
    wall = sum(s.wall for s in traced.spans)
    wall_ref = sum(s.wall_ref for s in traced.spans)
    to_ref = wall_ref / wall
    fresh = computed_results(traced)
    build = build_seconds(workload, first, harness)
    parts["trace.overhead_s"] = hook_cost_per_event() * sum(r.events for r in fresh)
    # ``build`` is already in reference seconds; the other parts are raw.
    parts["run.build_s"] = build * len(fresh) / to_ref
    callbacks = sum(v for k, v in parts.items() if k.endswith(".cb_s"))
    parts["sim.loop_s"] = (
        compute - callbacks - parts["trace.overhead_s"] - parts["run.build_s"]
    )
    parts["experiments.other_s"] = wall - compute - (
        parts["experiments.lookup_s"] + parts["experiments.store_s"]
        + parts["obs.export_s"]
    )
    for row in LEDGER_ROWS:
        metrics[row] = parts[row] * to_ref

    untraced = sum(s.wall_ref for s in counted[0].spans)
    metrics["trace.wall_s"] = wall_ref
    metrics["trace.overhead_ratio"] = wall_ref / untraced

    isolated, layer_failures = layers.measure(
        workload.name, harness, workload.quick, counted_inputs[0], counted[0]
    )
    metrics.update(isolated)

    metrics["host.raw_wall_s"] = statistics.mean(
        sum(s.wall for s in o.spans) for o in counted
    )
    metrics["host.calib_s"] = statistics.median(timer.calibrations)
    metrics["host.calib_drift"] = timer.calibrations[-1] / timer.calibrations[0]

    for name, _unit, _better in PER_LAYER:
        metrics.setdefault(name, 0.0)  # not measured on this workload

    outcomes = counted + [traced]
    failures = [f for o in outcomes for f in o.failures] + layer_failures
    attempted = sum(o.tasks for o in outcomes) + len(layer_failures)
    return metrics, attempted, len(failures), failures, traced.digest
