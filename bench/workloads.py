"""The five workloads: inputs, one timed call, and output checks.

A *call* is one request of the closed-loop client: one ``run_scenario`` for
the three scenario workloads, one 20-task sweep for ``sweep-cold``, 300
replays of a cached sweep for ``sweep-warm``.  Calls are sized to about one
second of host time per timed span (one to three seconds per call), because
the host's speed regimes last longer than that and each span is scaled by
the calibrations around it (:mod:`bench.host`).  Call ``i`` of a run draws
its inputs from ``seed * 1000 + 20 * i``, so one run averages over several
random inputs and two runs with different ``--seed`` share none.

The sizes below are the issue's parameters with every duration shortened by
one common factor (scenario workloads to a tenth, the sweep grid to three
tenths, its probes with it) to fit the contract's time cap; events per
simulated second, and with them the share of each layer, are unchanged.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from bench.host import Span, SpanTimer
from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
    all_designs,
)
from repro.experiments import cache, parallel
from repro.experiments.figures import multihop_config
from repro.experiments.parallel import RunEvent
from repro.experiments.runner import (
    ControllerSpec,
    MbacConfig,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)
from repro.experiments.scenarios import get_scenario
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.obs.export import ObsDirWriter
from repro.sim.engine import ProfileSink

#: Replays of the cached grid in one ``sweep-warm`` call, and how many of
#: them share one timed span (about a third of a second).
REPLAYS = 300
REPLAYS_QUICK = 30
REPLAYS_PER_SPAN = 100

#: ScenarioResult fields that are not physics: the engine's event count
#: (an optimisation may remove events) and the observability payloads.
_NOT_PHYSICS = ("events", "trace", "metrics", "timeseries")

RunTask = Tuple[ScenarioConfig, ControllerSpec]


def canonical_json(value: Any) -> str:
    """Sorted-key, separator-free JSON: equal values give equal bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def physics_digest(result: ScenarioResult) -> str:
    """SHA-256 of everything a result says about the simulated network."""
    payload = asdict(result)
    for name in _NOT_PHYSICS:
        del payload[name]
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def combined_digest(results: Sequence[ScenarioResult]) -> str:
    """One digest for the ordered results of a call."""
    joined = "\n".join(physics_digest(r) for r in results)
    return hashlib.sha256(joined.encode()).hexdigest()


def call_seed(seed: int, call: int) -> int:
    """First RNG seed of call ``call`` in a run started with ``--seed seed``.

    Calls are twenty apart because a sweep call uses twenty seeds.
    """
    return seed * 1000 + 20 * call


def task_failures(config: ScenarioConfig, result: ScenarioResult) -> List[str]:
    """Invariants every result must satisfy, as a list of breaches."""
    out: List[str] = []
    for util in [result.utilization, *result.per_link_utilization]:
        if not 0.0 <= util <= 1.0 + 1e-9:
            out.append(f"utilization {util!r} outside [0, 1]")
    if result.admitted > result.offered:
        out.append(f"admitted {result.admitted} > offered {result.offered}")
    # Counters are baselined at the warm-up boundary, so packets sent before
    # it and delivered after it count as delivered only: allow one buffer
    # plus one bandwidth-delay product (1000-bit packets) per hop.
    hops = config.backbone_links + 2 if config.topology == "parking-lot" else 1
    in_flight = hops * (
        config.buffer_packets + config.prop_delay * config.link_rate_bps / 1000 + 2
    )
    for label, stats in sorted(result.per_class.items()):
        seen = stats["delivered"] + stats["dropped"] + stats["lost"]
        if seen > stats["sent"] + in_flight:
            out.append(f"class {label}: {seen} packets accounted, {stats['sent']} sent")
    return out


def failed_tasks(
    tasks: Sequence[RunTask], results: Sequence[ScenarioResult],
) -> List[str]:
    """One entry per task whose result breaches an invariant."""
    return [
        "; ".join(found) for (config, _), result in zip(tasks, results)
        if (found := task_failures(config, result))
    ]


@dataclass
class Harness:
    """What a call needs from the run around it."""

    tmp: Path
    timer: SpanTimer
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> Path:
        """A new, not yet existing directory path under the run's temp root."""
        self._dirs += 1
        return self.tmp / f"{stem}-{self._dirs}"


@dataclass
class Outcome:
    """What one call produced."""

    tasks: int
    spans: List[Span]
    sim_seconds: float
    digest: str
    #: Breached invariants, one entry per failed task.
    failures: List[str] = field(default_factory=list)
    #: Results kept for the by-layer counts (all of them except replays).
    results: List[ScenarioResult] = field(default_factory=list)
    events: List[RunEvent] = field(default_factory=list)
    cache_bytes: int = 0
    export_bytes: int = 0


@contextmanager
def program_settings(cache_dir: Optional[Path], obs_dir: Optional[Path]) -> Iterator[None]:
    """Set the harness's process-wide knobs explicitly; reset them after.

    Jobs, cache directory and obs directory never come from the caller's
    environment, and nothing set here outlives the call.
    """
    previous = cache.get_cache_dir()
    cache.set_cache_dir(None if cache_dir is None else str(cache_dir))
    parallel.set_jobs(1)
    parallel.set_obs_dir(None if obs_dir is None else str(obs_dir))
    try:
        yield
    finally:
        cache.set_cache_dir(previous)
        parallel.set_jobs(None)
        parallel.set_obs_dir(None)


def tree_bytes(directory: Path) -> int:
    """Total size of the regular files under ``directory``."""
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Workload:
    """One named workload; subclasses build inputs and make calls."""

    name = ""
    why = ""
    #: Calls summed into the exact counts of the traced pass.
    count_calls = 1
    #: ``--quick``: the sweep grid at half length, a tenth of the replays.
    quick = False

    def tasks_per_call(self) -> int:
        """Scenario results one call produces."""
        return 1

    def inputs(self, seed: int, call: int) -> Any:
        """The generated inputs of call ``call``; pure construction."""
        raise NotImplementedError

    def first_task(self, inputs: Any) -> RunTask:
        """The (config, controller) of the call's first task."""
        raise NotImplementedError

    def counted(self, inputs: Any) -> Any:
        """Inputs with the end-of-run metrics harvest on, over the whole run.

        The measurement window is opened at t = 1 µs so the port and flow
        counters cover every event the engine counts; the trajectory, and
        with it the event count, is that of the timed inputs.
        """
        raise NotImplementedError

    def prepare(self, seed: int, harness: Harness) -> List[Span]:
        """Set-up beyond building inputs; its spans count as set-up time."""
        return []

    def call(
        self, inputs: Any, harness: Harness,
        profile: Optional[ProfileSink] = None,
    ) -> Outcome:
        """Make one timed call and check what it returned."""
        raise NotImplementedError

    def run_failures(self, outcomes: Sequence[Outcome]) -> List[str]:
        """Breaches that only show over all calls of a run."""
        return []


# ---------------------------------------------------------------------------
# scenario workloads
# ---------------------------------------------------------------------------

class ScenarioWorkload(Workload):
    """One ``run_scenario`` per call."""

    count_calls = 3

    def first_task(self, inputs: RunTask) -> RunTask:
        return inputs

    def counted(self, inputs: RunTask) -> RunTask:
        config, design = inputs
        obs = ObsConfig(metrics=True, trace=False)
        return replace(config, warmup=1e-6, obs=obs), design

    def call(
        self, inputs: RunTask, harness: Harness,
        profile: Optional[ProfileSink] = None,
    ) -> Outcome:
        config, design = inputs
        timer = harness.timer
        timer.begin()
        result = run_scenario(config, design, profile=profile)
        timer.end()
        return Outcome(
            tasks=1,
            spans=timer.take(),
            sim_seconds=result.sim_seconds,
            digest=combined_digest([result]),
            failures=failed_tasks([inputs], [result]),
            results=[result],
        )


class LinkSteady(ScenarioWorkload):
    name = "link-steady"
    why = ("Figure-2 operating point, pure data plane: on-off sources into a "
           "FIFO port; traffic, net and sim do all the work, admission none")

    def inputs(self, seed: int, call: int) -> RunTask:
        config = get_scenario("basic").config(scale=0.015, seed=call_seed(seed, call))
        design = EndpointDesign(
            CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
        )
        return replace(config, warmup=12.0, duration=30.0), design


class ProbeStorm(ScenarioWorkload):
    name = "probe-storm"
    why = ("Figure-1 thrashing: probe load near data load, link flaps, time-outs "
           "and retries; priority queue with push-out and markers, core at rate")

    def inputs(self, seed: int, call: int) -> RunTask:
        config = ScenarioConfig(
            source="EXP1", interarrival=0.05, lifetime_mean=10.0,
            warmup=2.0, duration=25.0, seed=call_seed(seed, call),
            # Many short outages instead of the issue's few long ones: the
            # work of a call depends on its share of downtime, and over a
            # 23 s window only frequent flaps keep that share (and with it
            # the spread of wall_s across seeds) steady.  The time-out and
            # back-off are halved and flows renege after 8 s, so outages of
            # ~2 s still exhaust retries and every call sees reneges.
            faults=FaultConfig(flap_every=2.0, flap_downtime=0.5, start=2.0),
        )
        design = EndpointDesign(
            CongestionSignal.MARK, ProbeBand.OUT_OF_BAND,
            ProbingScheme.SLOW_START, epsilon=0.05,
        ).with_resilience(0.5, 2, 0.25, 8.0)
        return config, design

    def run_failures(self, outcomes: Sequence[Outcome]) -> List[str]:
        flaps = sum(r.fault_events for o in outcomes for r in o.results)
        return [] if flaps or not outcomes else ["no link flap was applied in any call"]


class ParkingLotMbac(ScenarioWorkload):
    name = "parkinglot-mbac"
    why = ("Figure-10 parking lot under Measured Sum: a long-flow packet crosses "
           "three ports, so port hand-off dominates; the only place mbac runs")

    def inputs(self, seed: int, call: int) -> RunTask:
        config = replace(
            multihop_config(scale=0.015), warmup=4.5, duration=7.5,
            interarrival=0.9, seed=call_seed(seed, call),
        )
        return config, MbacConfig(0.9)


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------

SweepInputs = List[RunTask]


def manifest_failures(
    tasks: Sequence[RunTask], results: Sequence[ScenarioResult], obs_dir: Path,
) -> List[str]:
    """One entry per task whose artifacts the obs manifest does not list."""
    manifest = json.loads((obs_dir / "manifest.json").read_text())
    listed = {run["name"] for run in manifest["runs"]}
    return [
        f"task {i} missing from the obs manifest"
        for i, result in enumerate(results)
        if ObsDirWriter.run_name(i, result.controller_name, tasks[i][0].seed)
        not in listed
    ]


class SweepCold(Workload):
    name = "sweep-cold"
    why = ("a figure sweep on a cold cache: 20 short traced runs, so build, "
           "run_key, serialisation, disk store and obs export are a visible share")

    def tasks_per_call(self) -> int:
        return 20

    def inputs(self, seed: int, call: int) -> SweepInputs:
        shorten = 0.5 if self.quick else 1.0
        config = ScenarioConfig(
            source="EXP1", interarrival=0.5,
            warmup=3.0 * shorten, duration=4.8 * shorten,
            obs=ObsConfig(
                metrics=True, trace=True,
                categories=("sim", "port", "probe", "fault", "mbac"),
                timeseries=True, timeseries_interval=0.3 * shorten,
            ),
        )
        specs: List[ControllerSpec] = [
            design.with_epsilon(eps)
            for design in all_designs(probe_duration=1.5 * shorten)
            for eps in (0.0, 0.05)
        ]
        specs += [MbacConfig(0.8), MbacConfig(0.95)]
        # Ten points, two replicas each, every task on a seed of its own: a
        # figure sweep shares two seeds across its points, but then the
        # work of a call hangs on two random draws and varies ±5 % by seed.
        base = call_seed(seed, call)
        return [
            (config.with_seed(base + 2 * point + replica), spec)
            for point, spec in enumerate(specs) for replica in range(2)
        ]

    def first_task(self, inputs: SweepInputs) -> RunTask:
        return inputs[0]

    def counted(self, inputs: SweepInputs) -> SweepInputs:
        return [(replace(c, warmup=1e-6), spec) for c, spec in inputs]

    def sweep(
        self, inputs: SweepInputs, harness: Harness,
        cache_dir: Path, obs_dir: Optional[Path], span_per_task: bool,
        jobs: int = 1,
    ) -> Tuple[List[ScenarioResult], List[RunEvent]]:
        """One pass of the grid through the public sweep API, memo emptied.

        With ``span_per_task`` the open span is cut at every computed task
        (the public progress stream), so each ~0.15 s piece is scaled by
        its own calibrations.  The grid goes through ``run_many`` and not
        ``replicate_many``: the latter stops one ``next()`` short of
        exhausting ``iter_run_results`` and so never writes the obs
        manifest, which the checks below require.
        """
        timer = harness.timer
        events: List[RunEvent] = []

        def on_event(event: RunEvent) -> None:
            events.append(event)
            if span_per_task and event.source == "run":
                timer.end()
                timer.begin()

        cache.clear_cache(disk=False)
        with program_settings(cache_dir, obs_dir):
            timer.resume()
            results = parallel.run_many(inputs, jobs=jobs, progress=on_event)
            timer.pause()
        return results, events

    def call(
        self, inputs: SweepInputs, harness: Harness,
        profile: Optional[ProfileSink] = None,
    ) -> Outcome:
        del profile  # sweeps profile through parallel.set_profile
        return self.cold_pass(inputs, harness)

    def cold_pass(
        self, inputs: SweepInputs, harness: Harness,
        keep: Optional[Tuple[Path, Path]] = None,
    ) -> Outcome:
        """The grid on an empty cache, into fresh directories.

        ``keep`` names a (cache dir, obs dir) pair to fill and leave behind.
        """
        cache_dir, obs_dir = keep or (
            harness.fresh_dir("cache"), harness.fresh_dir("obs")
        )
        timer = harness.timer
        timer.begin()
        timer.pause()
        results, events = self.sweep(inputs, harness, cache_dir, obs_dir, True)
        timer.end()
        failures = failed_tasks(inputs, results)
        if len(results) != len(inputs):
            failures.append(f"{len(results)} results for {len(inputs)} tasks")
        failures += manifest_failures(inputs, results, obs_dir)
        outcome = Outcome(
            tasks=len(inputs),
            spans=timer.take(),
            sim_seconds=sum(r.sim_seconds for r in results),
            digest=combined_digest(results),
            failures=failures,
            results=results,
            events=events,
            cache_bytes=tree_bytes(cache_dir),
            export_bytes=tree_bytes(obs_dir),
        )
        if keep is None:
            shutil.rmtree(cache_dir)
            shutil.rmtree(obs_dir)
        return outcome


class SweepWarm(SweepCold):
    name = "sweep-warm"
    why = ("the same sweep replayed from the disk cache: run_key, fingerprint, "
           "JSON load and result rebuild, zero simulation")

    def __init__(self) -> None:
        self._dirs: Optional[Tuple[Path, Path]] = None
        self._cold: List[ScenarioResult] = []
        self._cold_bytes: List[str] = []

    @property
    def replays(self) -> int:
        """Replays of the cached grid in one call."""
        return REPLAYS_QUICK if self.quick else REPLAYS

    def tasks_per_call(self) -> int:
        return 20 * self.replays

    def inputs(self, seed: int, call: int) -> SweepInputs:
        # One fill per run, so every call replays the inputs of call 0.
        return super().inputs(seed, 0)

    def counted(self, inputs: SweepInputs) -> SweepInputs:
        # Nothing is simulated, so there is no window to widen; the filled
        # cache holds the timed inputs.
        return inputs

    def prepare(self, seed: int, harness: Harness) -> List[Span]:
        """Fill the cache with one cold pass; part of this workload's set-up."""
        self._dirs = (harness.fresh_dir("cache"), harness.fresh_dir("obs"))
        filled = self.cold_pass(self.inputs(seed, 0), harness, keep=self._dirs)
        if filled.failures:
            raise RuntimeError(f"cold fill failed: {filled.failures[0]}")
        self._cold = filled.results
        self._cold_bytes = [canonical_json(asdict(r)) for r in self._cold]
        return filled.spans

    def call(
        self, inputs: SweepInputs, harness: Harness,
        profile: Optional[ProfileSink] = None,
    ) -> Outcome:
        del profile
        assert self._dirs is not None, "prepare() fills the cache first"
        cache_dir, obs_dir = self._dirs
        replays = self.replays
        timer = harness.timer
        failures: List[str] = []
        events: List[RunEvent] = []
        first: List[ScenarioResult] = []
        done = 0
        while done < replays:
            timer.begin()
            timer.pause()
            for _ in range(min(REPLAYS_PER_SPAN, replays - done)):
                # No obs export on replays: sixty small atomic writes per
                # replay cost four times the cache reads and their kernel
                # time varied by a third from run to run on this file
                # system.  The cold pass and obs.export_ms_per_run cover it.
                results, seen = self.sweep(inputs, harness, cache_dir, None, False)
                events += seen
                if done == 0:
                    # Byte for byte once per call, by value on every replay.
                    first = results
                    if [canonical_json(asdict(r)) for r in results] != self._cold_bytes:
                        failures.append("replay 0 differs from the cold pass in bytes")
                if results != self._cold:
                    failures.append(f"replay {done} differs from the cold pass")
                done += 1
            timer.end()
        misses = sum(1 for e in events if e.source != "disk")
        if misses:
            failures.append(f"{misses} tasks were not disk-tier hits")
        return Outcome(
            tasks=len(inputs) * replays,
            spans=timer.take(),
            sim_seconds=sum(r.sim_seconds for r in self._cold) * replays,
            digest=combined_digest(first),
            failures=failures,
            results=first,
            events=events,
            cache_bytes=tree_bytes(cache_dir),
            export_bytes=tree_bytes(obs_dir),
        )


def all_workloads(quick: bool = False) -> Dict[str, Workload]:
    """Fresh workload objects by name, in round order."""
    workloads: List[Workload] = [
        LinkSteady(), ProbeStorm(), ParkingLotMbac(), SweepCold(), SweepWarm(),
    ]
    for workload in workloads:
        workload.quick = quick
    return {w.name: w for w in workloads}
