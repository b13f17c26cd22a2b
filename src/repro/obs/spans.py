"""Per-flow admission audit spans assembled from trace records.

A span is one flow's complete admission timeline — probe start, stalls,
retries, probe packets observed on the wire, losses, and the terminal
verdict — reconstructed purely from the event trace a run already
records (``probe``/``tx``/``port``/``mbac`` categories).  Nothing is
re-simulated: the spans are a *view* over the trace, so they inherit its
byte-stability and can be assembled from a single run's dump or from a
merged multi-run stream (:mod:`repro.obs.merge`).

Outcome vocabulary:

* ``admit`` — the probe's congestion fraction passed the epsilon test;
* ``reject`` — the probe measured too much congestion;
* ``timeout`` — the probe deadline expired past the retry budget (no
  verdict; the flow counts as blocked);
* ``renege`` — the user's hard deadline fired first (also blocked);
* ``pending`` — the trace ended while the flow was still probing.

MBAC decisions are instantaneous (no probing), so their spans have
``end == start`` and zero probe packets.

Exposed on the command line as ``python -m repro.obs spans``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro import canonical
from repro.net.packet import PROBE

#: ``port``-category events that mean a packet died at that port.
_DROP_EVENTS = ("queue-drop", "wire-loss", "blackhole", "blackhole-tx")


@dataclass
class FlowSpan:
    """One flow's admission timeline.

    ``start`` is the probe-start time (or the decision time for the
    instantaneous MBAC path); ``end`` is the decision time, or ``None``
    while the outcome is still ``pending``.  ``probe_tx`` counts this
    flow's probe packets observed as ``tx`` completions, ``probe_drops``
    its probe packets lost at any port — both are lower bounds when the
    trace decimates those categories (``ObsConfig.sample_every``).
    """

    flow: int
    label: str
    start: float
    outcome: str = "pending"
    end: Optional[float] = None
    retries: int = 0
    stalls: int = 0
    fraction: Optional[float] = None
    sent: Optional[int] = None
    epsilon: Optional[float] = None
    rate_bps: Optional[float] = None
    recorder: Optional[str] = None
    probe_tx: int = 0
    probe_drops: int = 0
    _reneged: bool = field(default=False, repr=False)

    @property
    def duration(self) -> float:
        """Seconds from probe start to decision (0.0 while pending)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (canonical when dumped with sorted keys)."""
        return {
            "flow": self.flow,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "retries": self.retries,
            "stalls": self.stalls,
            "fraction": self.fraction,
            "sent": self.sent,
            "epsilon": self.epsilon,
            "rate_bps": self.rate_bps,
            "recorder": self.recorder,
            "probe_tx": self.probe_tx,
            "probe_drops": self.probe_drops,
        }


def _span_key(record: Dict[str, Any]) -> Any:
    """Identity of the flow a record belongs to, unique across recorders."""
    return (record.get("recorder"), record["flow"])


def assemble_spans(records: Iterable[Dict[str, Any]]) -> List[FlowSpan]:
    """Fold parsed trace records into one span per probed flow.

    ``records`` must be in stream order (a single recorder's dump, or a
    deterministic merge); flows are keyed ``(recorder, flow_id)`` so
    multi-run streams never conflate two runs' flow ids.  Returns spans
    sorted by ``(start, recorder, flow)``.
    """
    open_spans: Dict[Any, FlowSpan] = {}
    closed: List[FlowSpan] = []

    def close(span: FlowSpan, record: Dict[str, Any], outcome: str) -> None:
        span.end = record["t"]
        span.outcome = outcome
        span.fraction = record.get("fraction")
        span.sent = record.get("sent")
        if "retries" in record:
            span.retries = record["retries"]
        closed.append(span)

    for record in records:
        cat = record.get("cat")
        if cat == "probe":
            key = _span_key(record)
            event = record.get("event")
            if event == "start":
                open_spans[key] = FlowSpan(
                    flow=record["flow"],
                    label=record.get("label", ""),
                    start=record["t"],
                    epsilon=record.get("epsilon"),
                    rate_bps=record.get("rate_bps"),
                    recorder=record.get("recorder"),
                )
                continue
            span = open_spans.get(key)
            if span is None:
                continue  # decimated-away start; skip the orphan event
            if event == "stall":
                span.stalls += 1
            elif event == "retry":
                span.retries = record.get("attempt", span.retries + 1)
            elif event == "renege":
                span._reneged = True
            elif event == "admit":
                del open_spans[key]
                close(span, record, "admit")
            elif event == "reject":
                del open_spans[key]
                if span._reneged:
                    outcome = "renege"
                elif record.get("timed_out"):
                    outcome = "timeout"
                else:
                    outcome = "reject"
                close(span, record, outcome)
        elif cat == "mbac" and record.get("event") == "decision":
            span = FlowSpan(
                flow=record["flow"],
                label=record.get("label", ""),
                start=record["t"],
                end=record["t"],
                outcome="admit" if record.get("admitted") else "reject",
                rate_bps=record.get("rate_bps"),
                recorder=record.get("recorder"),
                sent=0,
            )
            closed.append(span)
        elif cat == "tx" and record.get("kind") == PROBE:
            span = open_spans.get(_span_key(record))
            if span is not None:
                span.probe_tx += 1
        elif cat == "port" and record.get("kind") == PROBE:
            if record.get("event") in _DROP_EVENTS:
                span = open_spans.get(_span_key(record))
                if span is not None:
                    span.probe_drops += 1

    pending = [open_spans[key] for key in sorted(open_spans, key=str)]
    closed.extend(pending)
    closed.sort(key=lambda s: (s.start, s.recorder or "", s.flow))
    return closed


def span_counts(spans: Iterable[FlowSpan]) -> Dict[str, int]:
    """Tally spans per outcome (always includes every known outcome)."""
    counts = {"admit": 0, "reject": 0, "timeout": 0, "renege": 0,
              "pending": 0}
    for span in spans:
        counts[span.outcome] = counts.get(span.outcome, 0) + 1
    return counts


def format_spans(spans: Iterable[FlowSpan]) -> str:
    """Deterministic human-readable table of spans, one line each."""
    lines: List[str] = []
    for span in spans:
        end = "..." if span.end is None else f"{span.end:g}"
        fraction = "-" if span.fraction is None else f"{span.fraction:.4f}"
        lines.append(
            f"flow {span.flow:>6} {span.label:<6} "
            f"[{span.start:g}, {end}] {span.outcome:<7} "
            f"retries={span.retries} stalls={span.stalls} "
            f"fraction={fraction} probe_tx={span.probe_tx} "
            f"probe_drops={span.probe_drops}"
        )
    return "\n".join(lines)


def spans_to_jsonl(spans: Iterable[FlowSpan]) -> List[str]:
    """Canonical JSONL lines (sorted keys, compact separators)."""
    return [canonical.dumps(span.to_dict()) for span in spans]
