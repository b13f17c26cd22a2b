"""End-of-run metrics harvesting.

The components already keep the counters the paper's analysis needs —
``PortStats``, ``ClassStats``, the engine's scheduling totals, the fault
schedule's ``applied`` count — so most metrics cost the hot paths
*nothing*: they are read once here, after :meth:`Simulator.run`
returns.  Only a handful of genuinely per-event facts (probe decisions,
fault applications, estimator samples) are traced live, and those paths
are low-rate by construction.

Every iteration below is over a deterministically ordered collection
(``Network.ports()`` insertion order, sorted class labels, sorted
estimators), so the registry snapshot is byte-identical across runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.controller import ControllerBase
from repro.faults.schedule import FaultSchedule
from repro.mbac.measured_sum import MeasuredSumController
from repro.net.link import OutputPort
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator


def collect_simulator(registry: MetricsRegistry, sim: Simulator) -> None:
    """Engine totals: scheduling volume, cancellation churn, compactions."""
    registry.counter("sim_events_scheduled").inc(sim.scheduled)
    registry.counter("sim_events_dispatched").inc(sim.events_processed)
    registry.counter("sim_events_cancelled").inc(sim.cancellations)
    registry.counter("sim_compactions").inc(sim.compactions)
    registry.gauge("sim_time").set(sim.now)
    registry.gauge("sim_pending").set(sim.pending)


def collect_port(registry: MetricsRegistry, port: OutputPort) -> None:
    """One port's measurement-window counters and instantaneous state."""
    name = port.name
    stats = port.stats.window()
    registry.counter("port_data_bytes", port=name).inc(stats.data_bytes)
    registry.counter("port_probe_bytes", port=name).inc(stats.probe_bytes)
    registry.counter("port_be_bytes", port=name).inc(stats.be_bytes)
    registry.counter("port_data_packets", port=name).inc(stats.data_packets)
    registry.counter("port_probe_packets", port=name).inc(stats.probe_packets)
    registry.counter("port_arrived_data_bytes", port=name).inc(
        stats.arrived_data_bytes)
    registry.counter("port_arrived_probe_bytes", port=name).inc(
        stats.arrived_probe_bytes)
    registry.counter("port_fault_drops", port=name).inc(port.fault_drops)
    registry.gauge("port_backlog_packets", port=name).set(
        port.qdisc.backlog_packets)
    registry.gauge("port_utilization", port=name).set(
        stats.utilization(port.rate_bps, port.sim.now))


def collect_controller(registry: MetricsRegistry,
                       controller: ControllerBase) -> None:
    """Per-class admission outcomes plus the probe-fraction distribution."""
    class_stats = controller.class_stats()
    for label in sorted(class_stats):
        stats = class_stats[label]
        registry.counter("flows_offered", cls=label).inc(stats.offered)
        registry.counter("flows_admitted", cls=label).inc(stats.admitted)
        registry.counter("flows_blocked", cls=label).inc(stats.blocked)
        registry.counter("flows_timed_out", cls=label).inc(stats.timed_out)
        registry.counter("probe_retries", cls=label).inc(stats.retries)
        registry.counter("packets_sent", cls=label).inc(stats.sent)
        registry.counter("packets_delivered", cls=label).inc(stats.delivered)
        registry.counter("packets_dropped", cls=label).inc(stats.dropped)
        registry.counter("packets_marked", cls=label).inc(stats.marked)
        registry.counter("packets_lost", cls=label).inc(stats.lost)
    hist = registry.histogram("probe_fraction")
    for outcome in controller.outcomes:
        fraction = outcome.probe_fraction
        if fraction == fraction:  # skip NaN (flows that never probed)
            hist.observe(fraction)
    if isinstance(controller, MeasuredSumController):
        for est in controller.estimators():
            registry.counter("mbac_samples", port=est.port.name).inc(
                est.samples_taken)
            registry.gauge("mbac_estimate_bps", port=est.port.name).set(
                est.estimate_bps)


def collect_faults(registry: MetricsRegistry,
                   schedule: FaultSchedule) -> None:
    """Fault-schedule volume: planned vs applied, split by action."""
    registry.counter("fault_events_planned").inc(len(schedule.events))
    registry.counter("fault_events_applied").inc(schedule.applied)
    for event in schedule.events:
        registry.counter("fault_actions", action=event.action).inc()


def collect_trace(registry: MetricsRegistry,
                  recorder: TraceRecorder) -> None:
    """The trace's own accounting: emitted vs kept per category."""
    for category, (emitted, kept) in recorder.counts().items():
        registry.counter("trace_emitted", category=category).inc(emitted)
        registry.counter("trace_kept", category=category).inc(kept)
    registry.counter("trace_capped").inc(recorder.dropped)


def collect_run(
    registry: MetricsRegistry,
    sim: Simulator,
    ports: Sequence[OutputPort],
    controller: ControllerBase,
    schedule: Optional[FaultSchedule] = None,
    recorder: Optional[TraceRecorder] = None,
) -> None:
    """Harvest every layer of one finished scenario run."""
    collect_simulator(registry, sim)
    for port in ports:
        collect_port(registry, port)
    collect_controller(registry, controller)
    if schedule is not None:
        collect_faults(registry, schedule)
    if recorder is not None:
        collect_trace(registry, recorder)
