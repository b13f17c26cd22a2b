"""Build-and-run machinery for one simulation.

:func:`run_scenario` assembles a topology, an admission controller, and a
flow generator from a :class:`ScenarioConfig`, runs the event loop with a
warm-up measurement window, and returns a :class:`ScenarioResult` with the
quantities the paper reports: utilization of the allocated share (data
packets only), data-packet loss probability, and per-class blocking
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.controller import (
    ClassStats,
    ControllerBase,
    EndpointAdmissionControl,
    NoAdmissionControl,
)
from repro.core.design import EndpointDesign
from repro.errors import ConfigurationError
from repro.faults import FaultConfig, install_faults
from repro.mbac.estimator import check_sampling
from repro.mbac.measured_sum import MeasuredSumController, check_target
from repro.net.queues import DropTailFifo
from repro.net.topology import Network, parking_lot, single_link
from repro.obs.collect import collect_run
from repro.obs.config import ObsConfig
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.trace import TraceRecorder
from repro.sim.engine import ProfileSink, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.catalog import get_source_spec
from repro.traffic.flowgen import FlowClass, FlowGenerator, FlowRequest
from repro.units import mbps


@dataclass(frozen=True)
class MbacConfig:
    """Configuration of the Measured Sum benchmark controller.

    ``target_utilization`` is the loss-load sweep parameter.
    """

    target_utilization: float = 0.9
    sample_period: float = 0.1
    window_samples: int = 10

    def __post_init__(self) -> None:
        # Checked here as well as where the controller and its estimators
        # are built, so a bad spec fails before any event is scheduled: the
        # controller is built after the fault plan, and each estimator only
        # on its port's first request.
        check_target(self.target_utilization)
        check_sampling(self.sample_period, self.window_samples)

    @property
    def name(self) -> str:
        """Controller name recorded into results (mirrors designs)."""
        return f"mbac(u={self.target_utilization:g})"


#: What drives admission for a scenario: an endpoint design, the MBAC
#: benchmark, or nothing (admit all).
ControllerSpec = Union[EndpointDesign, MbacConfig, None]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario (a row of the paper's Table 2).

    Either give ``source`` (a Table-1 catalog name; a single class is built
    from it) or ``classes`` (explicit :class:`FlowClass` mix for
    heterogeneous scenarios and multi-hop topologies).
    """

    source: str = "EXP1"
    classes: Optional[Sequence[FlowClass]] = None
    interarrival: float = 3.5
    link_rate_bps: float = mbps(10)
    buffer_packets: int = 200
    prop_delay: float = 0.020
    duration: float = 1400.0
    warmup: float = 200.0
    lifetime_mean: float = 300.0
    seed: int = 1
    topology: str = "single"
    backbone_links: int = 3
    prefill: bool = True
    prefill_fraction: float = 0.75
    #: Optional deterministic fault-injection plan (repro.faults); the
    #: frozen FaultConfig nests cleanly in cache keys and task pickles.
    faults: Optional[FaultConfig] = None
    #: Optional observability plan (repro.obs).  Like ``faults`` it is a
    #: frozen dataclass, so it participates in cache keys: a traced run
    #: and an untraced run are different cache entries by construction.
    obs: Optional[ObsConfig] = None

    def __post_init__(self) -> None:
        if self.duration <= self.warmup:
            raise ConfigurationError(
                f"duration {self.duration!r} must exceed warmup {self.warmup!r}"
            )
        if self.topology not in ("single", "parking-lot"):
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; use 'single' or 'parking-lot'"
            )
        if not (math.isfinite(self.prefill_fraction) and self.prefill_fraction >= 0):
            raise ConfigurationError(
                f"prefill_fraction must be finite and >= 0, got {self.prefill_fraction!r}"
            )
        if self.classes is not None and not isinstance(self.classes, tuple):
            # Freeze so a frozen config is really immutable (and hashable).
            object.__setattr__(self, "classes", tuple(self.classes))

    def resolve_classes(self) -> List[FlowClass]:
        """The flow-class mix this scenario offers."""
        if self.classes is not None:
            return list(self.classes)
        spec = get_source_spec(self.source)
        return [FlowClass(label=spec.name, spec=spec)]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """A copy of this config under a different RNG seed."""
        return replace(self, seed=seed)


@dataclass
class ScenarioResult:
    """Measured outputs of one run (post-warm-up window only)."""

    controller_name: str
    seed: int
    utilization: float
    loss_probability: float
    blocking_probability: float
    offered: int
    admitted: int
    per_class: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    per_link_utilization: List[float] = field(default_factory=list)
    per_link_loss: List[float] = field(default_factory=list)
    probe_utilization: float = 0.0
    events: int = 0
    sim_seconds: float = 0.0
    #: Flows that gave up without a verdict (probe deadline past the retry
    #: budget, or renege) — a subset of the blocked count.
    timed_out: int = 0
    #: Total re-probe attempts across all measured flows.
    probe_retries: int = 0
    #: Fault-schedule events applied during the run (0 without faults).
    fault_events: int = 0
    #: Canonical JSONL trace lines (repro.obs), or None when untraced.
    #: Pre-serialized strings so byte-identity survives the JSON disk
    #: cache round-trip untouched.
    trace: Optional[List[str]] = None
    #: Canonical metrics snapshot (repro.obs), or None when disabled.
    metrics: Optional[Dict[str, Any]] = None
    #: Canonical time-series dict (repro.obs.timeseries), or None when
    #: the periodic sampler was off.
    timeseries: Optional[Dict[str, Any]] = None

    @property
    def blocked(self) -> int:
        """Flows denied admission (offered minus admitted)."""
        return self.offered - self.admitted


def _controller_name(spec: ControllerSpec) -> str:
    if spec is None:
        return "no-admission-control"
    return spec.name


def build_controller(
    sim: Simulator,
    network: Network,
    streams: RandomStreams,
    spec: ControllerSpec,
) -> ControllerBase:
    """Instantiate the controller a :data:`ControllerSpec` describes."""
    if spec is None:
        return NoAdmissionControl(sim, network, streams)
    if isinstance(spec, EndpointDesign):
        return EndpointAdmissionControl(sim, network, spec, streams)
    if isinstance(spec, MbacConfig):
        return MeasuredSumController(
            sim, network, streams,
            target_utilization=spec.target_utilization,
            sample_period=spec.sample_period,
            window_samples=spec.window_samples,
        )
    raise ConfigurationError(f"unknown controller spec {spec!r}")


def _prefill(
    sim: Simulator,
    streams: RandomStreams,
    controller: ControllerBase,
    classes: List[FlowClass],
    config: ScenarioConfig,
) -> None:
    """Warm-start: populate the link with an estimate of steady-state flows.

    Flow occupancy relaxes with the mean-lifetime time constant (300 s), so
    starting from an empty link needs a very long warm-up.  Seeding the run
    with roughly the steady-state number of already-admitted flows — the
    smaller of the offered load and ``prefill_fraction`` of capacity — cuts
    the residual transient to a fraction of one lifetime.  Lifetimes are
    exponential, hence memoryless: fresh draws are exactly the stationary
    residual-lifetime law, so the prefilled population is statistically
    indistinguishable from flows admitted long ago.
    """
    rng = streams.get("prefill")
    total_weight = sum(c.weight for c in classes)
    mean_rate = sum(
        c.weight / total_weight * c.spec.average_rate_bps for c in classes
    )
    offered_flows = config.lifetime_mean / config.interarrival
    capacity_flows = config.prefill_fraction * config.link_rate_bps / mean_rate
    target = min(offered_flows, capacity_flows)
    next_id = -1
    for cls in classes:
        count = int(round(target * cls.weight / total_weight))
        for __ in range(count):
            request = FlowRequest(
                flow_id=next_id,
                cls=cls,
                arrival_time=0.0,
                lifetime=float(rng.exponential(config.lifetime_mean)),
            )
            next_id -= 1
            controller.force_admit(request)


def run_scenario(
    config: ScenarioConfig,
    design: ControllerSpec = None,
    profile: Optional[ProfileSink] = None,
) -> ScenarioResult:
    """Run one scenario under one admission controller.

    ``design`` may be an :class:`EndpointDesign`, an :class:`MbacConfig`,
    or ``None`` (no admission control).  ``profile`` installs a
    per-callback wall-time profiler on the engine; it must come from
    harness code with an injected clock (see
    :class:`repro.sim.engine.ProfileSink`) and its results never enter
    the returned (cacheable) result.
    """
    sim = Simulator()
    streams = RandomStreams(config.seed)
    if profile is not None:
        sim.enable_profiling(profile)

    obs = config.obs
    recorder: Optional[TraceRecorder] = None
    if obs is not None and obs.trace:
        # The recorder identity makes sweep streams mergeable: the merge
        # key is (t, recorder, i), so each task needs a distinct id.
        # Controller name + seed distinguishes every task of one sweep.
        recorder = TraceRecorder(
            obs, recorder_id=f"{_controller_name(design)}/s{config.seed}"
        )
        sim.trace = recorder

    if isinstance(design, EndpointDesign):
        qdisc_factory = design.qdisc_factory(config.link_rate_bps, config.buffer_packets)
    else:
        def qdisc_factory() -> DropTailFifo:
            return DropTailFifo(config.buffer_packets)

    if config.topology == "single":
        network, bottleneck = single_link(
            sim, config.link_rate_bps, qdisc_factory, config.prop_delay
        )
        congested = [bottleneck]
    else:
        network, congested = parking_lot(
            sim, config.link_rate_bps, qdisc_factory, config.prop_delay,
            backbone_links=config.backbone_links,
        )

    if recorder is not None:
        tx_trace = recorder if recorder.keeps("tx") else None
        for port in network.ports():
            port.trace = recorder
            port.tx_trace = tx_trace

    fault_schedule = None
    if config.faults is not None and config.faults.any_enabled:
        fault_schedule = install_faults(
            sim, streams, config.faults, congested, config.duration,
            trace=recorder,
        )

    controller = build_controller(sim, network, streams, design)
    controller.trace = recorder
    classes = config.resolve_classes()
    generator = FlowGenerator(
        sim, streams, classes, config.interarrival,
        controller.handle, lifetime_mean=config.lifetime_mean,
    )
    if config.prefill:
        _prefill(sim, streams, controller, classes, config)
    generator.start()

    sampler: Optional[TimeSeriesSampler] = None
    if obs is not None and obs.timeseries:
        labels = sorted({cls.label for cls in classes})
        sampler = TimeSeriesSampler(
            sim, obs, list(network.ports()), controller, labels
        )
        sampler.start()

    sim.schedule_at(config.warmup, controller.begin_measurement)
    sim.run(until=config.duration)

    now = sim.now
    totals = controller.totals()
    per_link_util = [
        p.stats.window().utilization(p.rate_bps, now) for p in congested
    ]
    per_link_loss = []
    for port in congested:
        # Whole-link drop fraction (all kinds: data + probes) over the full
        # run — a coarse per-hop congestion indicator; per-class data loss
        # comes from the controller's class stats.
        qdisc = port.qdisc
        drops = getattr(qdisc, "drops", 0)
        enqueued = getattr(qdisc, "enqueued", 0)
        arrived = drops + enqueued
        per_link_loss.append(drops / arrived if arrived else 0.0)

    probe_util = 0.0
    if congested:
        port = congested[0]
        window = port.stats.window()
        elapsed = now - window.since
        if elapsed > 0:
            probe_util = window.probe_bytes * 8 / (port.rate_bps * elapsed)

    metrics: Optional[Dict[str, Any]] = None
    if obs is not None and obs.metrics:
        metrics = collect_run(sim, network.ports(), controller,
                              schedule=fault_schedule, recorder=recorder)

    return ScenarioResult(
        controller_name=_controller_name(design),
        seed=config.seed,
        utilization=sum(per_link_util) / len(per_link_util) if per_link_util else 0.0,
        loss_probability=totals.loss_probability,
        blocking_probability=totals.blocking_probability,
        offered=totals.offered,
        admitted=totals.admitted,
        per_class={label: stats.as_dict() for label, stats in controller.class_stats().items()},
        per_link_utilization=per_link_util,
        per_link_loss=per_link_loss,
        probe_utilization=probe_util,
        events=sim.events_processed,
        sim_seconds=now,
        timed_out=totals.timed_out,
        probe_retries=totals.retries,
        fault_events=fault_schedule.applied if fault_schedule is not None else 0,
        trace=recorder.lines() if recorder is not None else None,
        metrics=metrics,
        timeseries=sampler.to_dict() if sampler is not None else None,
    )


@dataclass
class ReplicatedResult:
    """Mean of several seeds, with per-class means aggregated streamingly.

    Built with :meth:`aggregate`, which folds per-seed results into running
    sums one at a time — at ``REPRO_SCALE=1.0`` a sweep touches thousands
    of runs, and holding every :class:`ScenarioResult` alive for the whole
    sweep dominates memory.  A caller that wants the per-seed results
    calls :func:`repro.experiments.parallel.run_many`.
    """

    controller_name: str
    utilization: float
    loss_probability: float
    blocking_probability: float
    n_runs: int = 0
    seeds_used: Tuple[int, ...] = ()
    per_class_means: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def seeds(self) -> List[int]:
        """The seeds replicated over."""
        return list(self.seeds_used)

    def class_mean(self, label: str, key: str) -> float:
        """Mean of one per-class metric across seeds (0.0 if class absent)."""
        return self.per_class_means.get(label, {}).get(key, 0.0)

    @classmethod
    def aggregate(cls, results: Iterable[ScenarioResult]) -> "ReplicatedResult":
        """Fold per-seed results into means without retaining them.

        ``results`` is consumed lazily: each headline metric and each
        per-class metric is accumulated into running sums, and the
        :class:`ScenarioResult` is dropped before the next one is pulled —
        peak memory is one run, not the whole sweep.
        """
        n = 0
        controller_name = ""
        util_sum = loss_sum = block_sum = 0.0
        seeds: List[int] = []
        class_sums: Dict[str, Dict[str, float]] = {}
        class_counts: Dict[str, int] = {}
        for result in results:
            if n == 0:
                controller_name = result.controller_name
            n += 1
            util_sum += result.utilization
            loss_sum += result.loss_probability
            block_sum += result.blocking_probability
            seeds.append(result.seed)
            for label, stats in result.per_class.items():
                sums = class_sums.setdefault(label, {})
                class_counts[label] = class_counts.get(label, 0) + 1
                for stat_key, value in stats.items():
                    if isinstance(value, (int, float)):
                        sums[stat_key] = sums.get(stat_key, 0.0) + value
            del result  # not held while the next one is pulled
        if n == 0:
            raise ConfigurationError("need at least one seed")
        per_class_means = {
            label: {k: v / class_counts[label] for k, v in sums.items()}
            for label, sums in class_sums.items()
        }
        return cls(
            controller_name=controller_name,
            utilization=util_sum / n,
            loss_probability=loss_sum / n,
            blocking_probability=block_sum / n,
            n_runs=n,
            seeds_used=tuple(seeds),
            per_class_means=per_class_means,
        )
