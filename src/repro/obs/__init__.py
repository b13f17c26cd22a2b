"""Deterministic observability: metrics, event tracing, profiling.

Three kinds of observation, three domains (DESIGN.md §13):

* **Metrics** (:mod:`repro.obs.collect`) — a snapshot of counters,
  gauges and one histogram with label sets, *harvested* once after the
  run from counters the components already keep, so hot paths pay
  nothing.  Deterministic: part of ``ScenarioResult`` and the cache.
* **Tracing** (:mod:`repro.obs.trace`) — sim-time-stamped JSONL records
  with per-category deterministic sampling, byte-identical across runs
  and ``--jobs``.  Deterministic: part of ``ScenarioResult``.
* **Profiling** (:mod:`repro.obs.profile`) — per-callback wall time with
  an *injected* clock, harness domain only.  Nondeterministic: rides in
  progress events, never in cached results.

Three derived views build on them (DESIGN.md §14):

* **Time series** (:mod:`repro.obs.timeseries`) — a periodic sampler
  scheduled on sim time recording per-port utilization/backlog/loss,
  per-class admitted load, and MBAC estimator state.  Deterministic:
  part of ``ScenarioResult`` and the cache.
* **Spans** (:mod:`repro.obs.spans`) — per-flow admission audit spans
  assembled from the trace after the fact; a pure view, nothing extra
  is recorded.
* **Merge** (:mod:`repro.obs.merge`) — deterministic k-way merge of
  trace streams keyed ``(t, recorder, i)``, byte-preserving.

Enable per scenario via ``ScenarioConfig(obs=ObsConfig(...))`` or the
``repro-eac run --trace/--metrics/--timeseries`` flags (and the sweep
``--obs-dir`` export); inspect dumps with
``python -m repro.obs summarize|filter|diff|spans|merge``.
"""

from repro.obs.config import KNOWN_CATEGORIES, ObsConfig
from repro.obs.export import MANIFEST_SCHEMA_VERSION, ObsDirWriter
from repro.obs.merge import merge_files, merge_streams
from repro.obs.profile import CallbackProfile
from repro.obs.spans import FlowSpan, assemble_spans, span_counts
from repro.obs.timeseries import TIMESERIES_SCHEMA_VERSION, TimeSeriesSampler
from repro.obs.trace import (
    DEFAULT_RECORDER_ID,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    parse_lines,
)

__all__ = [
    "KNOWN_CATEGORIES",
    "ObsConfig",
    "MANIFEST_SCHEMA_VERSION",
    "ObsDirWriter",
    "merge_files",
    "merge_streams",
    "CallbackProfile",
    "FlowSpan",
    "assemble_spans",
    "span_counts",
    "TIMESERIES_SCHEMA_VERSION",
    "TimeSeriesSampler",
    "DEFAULT_RECORDER_ID",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "parse_lines",
]
