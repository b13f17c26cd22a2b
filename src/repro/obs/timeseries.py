"""Deterministic periodic time-series sampling of a running scenario.

The end-of-run metrics harvest (:mod:`repro.obs.collect`) sees only the
final state — but the paper's central phenomena (thrashing under
overload, the slow ramp of endpoint admission, transient over-admission)
are *time-varying*.  :class:`TimeSeriesSampler` records trajectories: a
callback scheduled on **sim time** (never a wall clock) snapshots
counters the components already keep, every ``ObsConfig.timeseries_interval``
sim seconds, up to ``ObsConfig.timeseries_max_samples`` samples.

Determinism argument (DESIGN.md §14): the sampler only *reads* component
state and schedules its own next tick.  Inserting its events shifts the
engine's ``seq`` tie-break counter, but ``(time, seq)`` ordering is
lexicographic — extra events never reorder the *relative* dispatch order
of the physics events, so the simulated system evolves identically and
``result.events`` is the only headline number that moves.  The sampled
values are pure functions of sim state at sim times, hence byte-stable
across runs and across ``--jobs N``.

The columns are fixed at construction (ports in topology order, class
labels sorted, estimator columns per port), so two runs of the same
config produce series with identical shapes even if, say, a class never
offers a flow.  All iteration in this module is over lists built
deterministically — the module schedules events, so the DET003 rule
forbids unordered collections here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.controller import ControllerBase
from repro.mbac.measured_sum import MeasuredSumController
from repro.net.link import OutputPort
from repro.obs.config import ObsConfig
from repro.sim.engine import Simulator
from repro.units import BITS_PER_BYTE

#: Version stamped into every serialized series dict as ``"v"``.
TIMESERIES_SCHEMA_VERSION = 1


def _tx_bytes(port: OutputPort) -> int:
    """Total bytes this port has transmitted since t = 0."""
    stats = port.stats
    return (stats.data_bytes + stats.probe_bytes + stats.be_bytes
            + stats.other_bytes)


def _drop_count(port: OutputPort) -> int:
    """Cumulative losses at this port: queue drops plus fault drops.

    Monotone over the whole run, like every counter a run keeps.
    """
    return int(getattr(port.qdisc, "drops", 0)) + port.fault_drops


class TimeSeriesSampler:
    """Samples per-port, per-class, and estimator state on a fixed period.

    Parameters
    ----------
    sim:
        The engine to schedule ticks on.
    config:
        The :class:`~repro.obs.config.ObsConfig` whose
        ``timeseries_interval`` / ``timeseries_max_samples`` govern
        sampling.
    ports:
        The ports to track, in deterministic (topology) order.
    controller:
        The run's admission controller; per-class columns read its
        cumulative admission counts and live-flow load, and a
        :class:`~repro.mbac.measured_sum.MeasuredSumController` also gets
        per-port estimator columns.
    class_labels:
        The flow-class labels to track, pre-sorted by the caller.

    Columns (each a parallel array to ``t``):

    * ``port:<name>:util`` — fraction of capacity serialized during the
      preceding interval (all packet kinds);
    * ``port:<name>:backlog`` — instantaneous queue depth in packets;
    * ``port:<name>:drops`` — losses (queue + fault) during the interval;
    * ``class:<label>:live`` — flows currently in their data phase;
    * ``class:<label>:load_bps`` — sum of the live flows' token rates
      (the admitted load);
    * ``class:<label>:accepts`` / ``class:<label>:rejects`` — admission
      decisions during the interval (prefilled flows count as accepts at
      t=0);
    * ``mbac:<name>:estimate_bps`` — the Measured Sum estimator's current
      load estimate (0.0 before the port's estimator exists), MBAC runs
      only.
    """

    def __init__(
        self,
        sim: Simulator,
        config: ObsConfig,
        ports: Sequence[OutputPort],
        controller: ControllerBase,
        class_labels: Sequence[str],
    ) -> None:
        self.sim = sim
        self.interval = config.timeseries_interval
        self.max_samples = config.timeseries_max_samples
        self._ports: List[OutputPort] = list(ports)
        self._controller = controller
        self._labels: List[str] = list(class_labels)
        self._mbac = (
            controller if isinstance(controller, MeasuredSumController)
            else None
        )
        self._t: List[float] = []
        #: Column names in emission order; parallel to ``_columns``.
        self._names: List[str] = []
        self._columns: List[List[float]] = []
        for port in self._ports:
            for suffix in ("util", "backlog", "drops"):
                self._names.append(f"port:{port.name}:{suffix}")
        for label in self._labels:
            for suffix in ("live", "load_bps", "accepts", "rejects"):
                self._names.append(f"class:{label}:{suffix}")
        if self._mbac is not None:
            for port in self._ports:
                self._names.append(f"mbac:{port.name}:estimate_bps")
        for _ in self._names:
            self._columns.append([])
        # Interval-delta baselines, parallel to ``_ports`` / ``_labels``.
        self._last_tx: List[int] = [_tx_bytes(p) for p in self._ports]
        self._last_drops: List[int] = [_drop_count(p) for p in self._ports]
        self._last_offered: List[int] = [0 for _ in self._labels]
        self._last_admitted: List[int] = [0 for _ in self._labels]
        self._started = False

    def start(self) -> None:
        """Take the t=0 sample and begin periodic sampling."""
        if self._started:
            return
        self._started = True
        self._tick()

    @property
    def samples(self) -> int:
        """Number of samples taken so far."""
        return len(self._t)

    def _tick(self) -> None:
        self._sample()
        if len(self._t) < self.max_samples:
            self.sim.schedule(self.interval, self._tick)

    def _sample(self) -> None:
        now = self.sim.now
        interval = self.interval
        self._t.append(now)
        columns = self._columns
        col = 0
        for j, port in enumerate(self._ports):
            tx = _tx_bytes(port)
            delta = tx - self._last_tx[j]
            self._last_tx[j] = tx
            columns[col].append(
                delta * BITS_PER_BYTE / (port.rate_bps * interval)
            )
            columns[col + 1].append(float(port.qdisc.backlog_packets))
            drops = _drop_count(port)
            columns[col + 2].append(float(drops - self._last_drops[j]))
            self._last_drops[j] = drops
            col += 3
        controller = self._controller
        counts = controller.admission_counts()
        for j, label in enumerate(self._labels):
            live, load_bps = controller.live_class_load(label)
            offered, admitted = counts.get(label, (0, 0))
            columns[col].append(float(live))
            columns[col + 1].append(load_bps)
            columns[col + 2].append(float(admitted - self._last_admitted[j]))
            rejected = offered - admitted
            last_rejected = self._last_offered[j] - self._last_admitted[j]
            columns[col + 3].append(float(rejected - last_rejected))
            self._last_offered[j] = offered
            self._last_admitted[j] = admitted
            col += 4
        if self._mbac is not None:
            estimates: Dict[str, float] = {}
            for est in self._mbac.estimators():
                estimates[est.port.name] = est.estimate_bps
            for port in self._ports:
                columns[col].append(estimates.get(port.name, 0.0))
                col += 1

    def to_dict(self) -> Dict[str, Any]:
        """The recorded series as one canonical, JSON-ready dict.

        ``t`` is the sample-time array; every entry of ``series`` is a
        parallel array.  Serialize with :func:`repro.canonical.dumps`
        for byte-stable files; the dict itself is deterministic already —
        column names are fixed at construction and values are pure
        functions of sim state.
        """
        series: Dict[str, List[float]] = {}
        for j, name in enumerate(self._names):
            series[name] = list(self._columns[j])
        return {
            "v": TIMESERIES_SCHEMA_VERSION,
            "interval": self.interval,
            "t": list(self._t),
            "series": series,
        }
