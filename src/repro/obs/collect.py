"""End-of-run metrics: the one writer of the metrics snapshot.

The components already keep the counters the paper's analysis needs —
``PortStats``, ``ClassStats``, the engine's scheduling totals, the fault
schedule's ``applied`` count — so metrics cost the hot paths *nothing*:
:func:`collect_run` reads them once, after :meth:`Simulator.run`
returns, and builds the snapshot ``run_scenario`` stores as
``ScenarioResult.metrics``.  Everything else (``python -m repro.obs``,
``bench``) only reads it::

    {"v": 1,
     "counters":   [{"name", "labels", "value"}, ...],
     "gauges":     [{"name", "labels", "value"}, ...],
     "histograms": [{"name", "labels", "bounds", "buckets", "count", "sum"}]}

Each list is sorted by ``(name, sorted label pairs)``, and a series whose
value is zero is still listed, so identical runs give byte-identical
canonical JSON and ``python -m repro.obs diff`` reports zero deltas.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import ControllerBase
from repro.faults.schedule import FaultSchedule
from repro.mbac.measured_sum import MeasuredSumController
from repro.net.link import OutputPort
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator

#: Upper bounds of the ``probe_fraction`` buckets; one more bucket counts
#: the fractions above the last bound.
_PROBE_FRACTION_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: ``PortStats`` window fields, each harvested as ``port_<field>``.
_PORT_FIELDS = (
    "data_bytes", "probe_bytes", "be_bytes", "data_packets", "probe_packets",
    "arrived_data_bytes", "arrived_probe_bytes",
)

#: ``(series name, ClassStats attribute)`` of the per-class counters.
_CLASS_FIELDS = (
    ("flows_offered", "offered"), ("flows_admitted", "admitted"),
    ("flows_blocked", "blocked"), ("flows_timed_out", "timed_out"),
    ("probe_retries", "retries"), ("packets_sent", "sent"),
    ("packets_delivered", "delivered"), ("packets_dropped", "dropped"),
    ("packets_marked", "marked"), ("packets_lost", "lost"),
)

Series = Dict[str, Any]


def _series(name: str, value: float, **labels: str) -> Series:
    return {"name": name, "labels": labels, "value": value}


def _sorted(series: List[Series]) -> List[Series]:
    return sorted(series, key=lambda s: (s["name"], sorted(s["labels"].items())))


def _probe_fraction(controller: ControllerBase) -> Series:
    """Histogram of the flows' probe loss/mark fractions, in outcome order."""
    buckets = [0] * (len(_PROBE_FRACTION_BOUNDS) + 1)
    total = 0.0
    for outcome in controller.outcomes:
        fraction = outcome.probe_fraction
        if fraction == fraction:  # skip NaN (flows that never probed)
            buckets[bisect_left(_PROBE_FRACTION_BOUNDS, fraction)] += 1
            total += fraction
    return {
        "name": "probe_fraction", "labels": {},
        "bounds": list(_PROBE_FRACTION_BOUNDS), "buckets": buckets,
        "count": sum(buckets), "sum": total,
    }


def collect_run(
    sim: Simulator,
    ports: Sequence[OutputPort],
    controller: ControllerBase,
    schedule: Optional[FaultSchedule] = None,
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    """Harvest every layer of one finished scenario run into the snapshot."""
    counters = [
        _series("sim_events_scheduled", sim.scheduled),
        _series("sim_events_dispatched", sim.events_processed),
        _series("sim_events_cancelled", sim.cancellations),
        _series("sim_compactions", sim.compactions),
    ]
    gauges = [_series("sim_time", sim.now), _series("sim_pending", sim.pending)]
    for port in ports:
        name = port.name
        stats = port.stats.window()
        counters += [
            _series(f"port_{field}", getattr(stats, field), port=name)
            for field in _PORT_FIELDS
        ]
        counters.append(_series("port_fault_drops", port.fault_drops, port=name))
        gauges.append(_series("port_backlog_packets",
                              port.qdisc.backlog_packets, port=name))
        gauges.append(_series("port_utilization",
                              stats.utilization(port.rate_bps, sim.now), port=name))
    for label, cls in controller.class_stats().items():
        counters += [
            _series(series, getattr(cls, field), cls=label)
            for series, field in _CLASS_FIELDS
        ]
    if isinstance(controller, MeasuredSumController):
        for est in controller.estimators():
            name = est.port.name
            counters.append(_series("mbac_samples", est.samples_taken, port=name))
            gauges.append(_series("mbac_estimate_bps", est.estimate_bps, port=name))
    if schedule is not None:
        counters.append(_series("fault_events_planned", len(schedule.events)))
        counters.append(_series("fault_events_applied", schedule.applied))
        actions = Counter(event.action for event in schedule.events)
        counters += [
            _series("fault_actions", n, action=action)
            for action, n in actions.items()
        ]
    if recorder is not None:
        for category, (emitted, kept) in recorder.counts().items():
            counters.append(_series("trace_emitted", emitted, category=category))
            counters.append(_series("trace_kept", kept, category=category))
        counters.append(_series("trace_capped", recorder.dropped))
    return {
        "v": 1,
        "counters": _sorted(counters),
        "gauges": _sorted(gauges),
        "histograms": [_probe_fraction(controller)],
    }
