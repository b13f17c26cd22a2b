"""Command-line inspection of trace/metrics/timeseries dumps.

``python -m repro.obs`` offers five subcommands over the files the
``repro-eac run --trace/--metrics/--timeseries`` flags (and the sweep
``--obs-dir`` export) write:

* ``summarize FILE`` — per-category (or per-series) totals;
* ``filter FILE --category CAT [--since T] [--until T]`` — print the
  matching JSONL lines byte-for-byte;
* ``diff A B [--max-deltas N]`` — compare two dumps of the same kind;
  exit 0 on zero deltas, 1 otherwise, with a bounded delta listing;
* ``spans FILE`` — reconstruct per-flow admission audit spans from a
  trace (or merged trace) dump;
* ``merge FILE... [-o OUT]`` — deterministic ``(t, recorder, i)``-keyed
  k-way merge of trace streams, byte-preserving.

Formats are auto-detected: a metrics dump is one JSON object with a
``counters`` key, a timeseries dump one with a ``series`` key, a trace
is JSONL.  All output is deterministic (the golden CLI tests pin it), so
diffing two identical-seed runs really does print ``identical``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.export import encode_artifact, write_artifact
from repro.obs.merge import merge_files
from repro.obs.spans import (
    assemble_spans,
    format_spans,
    span_counts,
    spans_to_jsonl,
)
from repro.obs.trace import parse_lines

#: (kind, payload): kind is "metrics"/"timeseries" (dict) or "trace"
#: (list of lines).
Loaded = Tuple[str, Any]


def load_dump(path: str) -> Loaded:
    """Read ``path`` and classify it as a metrics/timeseries/trace dump."""
    text = Path(path).read_text()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "counters" in payload:
            return "metrics", payload
        if isinstance(payload, dict) and "series" in payload:
            return "timeseries", payload
    lines = [line for line in text.splitlines() if line.strip()]
    return "trace", lines


def _labels_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _metrics_series(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a metrics dump into ``{printable-name: value}`` rows."""
    series: Dict[str, Any] = {}
    for entry in payload.get("counters", []):
        series[entry["name"] + _labels_suffix(entry["labels"])] = entry["value"]
    for entry in payload.get("gauges", []):
        series[entry["name"] + _labels_suffix(entry["labels"])] = entry["value"]
    for entry in payload.get("histograms", []):
        key = entry["name"] + _labels_suffix(entry["labels"])
        series[key] = {"count": entry["count"], "sum": entry["sum"],
                       "buckets": entry["buckets"]}
    return series


def _timeseries_rows(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a timeseries dump into ``{printable-name: value}`` rows.

    Each series becomes one row keyed by name; the sample clock and the
    interval become ``_t``/``_interval`` rows so a diff covers them too.
    """
    rows: Dict[str, Any] = {
        "_interval": payload.get("interval"),
        "_t": payload.get("t", []),
    }
    series = payload.get("series", {})
    if isinstance(series, dict):
        for name in sorted(series):
            rows[name] = series[name]
    return rows


def summarize(path: str, category: Optional[str] = None) -> str:
    """Human-readable totals for one dump (deterministic text)."""
    kind, payload = load_dump(path)
    out: List[str] = []
    if kind == "timeseries":
        series = payload.get("series", {})
        times = payload.get("t", [])
        span = f"t=[{times[0]:g}, {times[-1]:g}], " if times else ""
        out.append(
            f"timeseries: {len(series)} series, {len(times)} samples, "
            f"{span}interval={payload.get('interval', 0):g}"
        )
        for name in sorted(series):
            values = series[name]
            if values:
                out.append(
                    f"  {name} min={min(values):g} max={max(values):g} "
                    f"last={values[-1]:g}"
                )
            else:
                out.append(f"  {name} (empty)")
        return "\n".join(out)
    if kind == "metrics":
        series = _metrics_series(payload)
        out.append(f"metrics: {len(series)} series")
        for key in sorted(series):
            value = series[key]
            if isinstance(value, dict):
                out.append(f"  {key} count={value['count']} sum={value['sum']:g}")
            else:
                out.append(f"  {key} {value:g}")
        return "\n".join(out)
    records = list(parse_lines(payload))
    if category is not None:
        records = [r for r in records if r.get("cat") == category]
    if not records:
        return "trace: 0 records"
    t_min = min(r["t"] for r in records)
    t_max = max(r["t"] for r in records)
    versions = sorted({r.get("v", 0) for r in records})
    out.append(
        f"trace: {len(records)} records, t=[{t_min:g}, {t_max:g}], "
        f"schema v{'/'.join(str(v) for v in versions)}"
    )
    by_cat: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_cat.setdefault(record.get("cat", "?"), []).append(record)
    for cat in sorted(by_cat):
        group = by_cat[cat]
        events: Dict[str, int] = {}
        for record in group:
            event = record.get("event")
            if isinstance(event, str):
                events[event] = events.get(event, 0) + 1
        detail = ""
        if events:
            detail = "  (" + ", ".join(
                f"{name}={count}" for name, count in sorted(events.items())
            ) + ")"
        lo = min(r["t"] for r in group)
        hi = max(r["t"] for r in group)
        out.append(
            f"  {cat:<8} {len(group):>8} records  t=[{lo:g}, {hi:g}]{detail}"
        )
    return "\n".join(out)


def filter_trace(
    path: str,
    category: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[str]:
    """The trace lines matching the filters, byte-for-byte."""
    kind, payload = load_dump(path)
    if kind != "trace":
        raise SystemExit(f"{path} is a metrics dump; filter works on traces")
    kept: List[str] = []
    for line in payload:
        record = json.loads(line)
        if category is not None and record.get("cat") != category:
            continue
        t = record.get("t", 0.0)
        if since is not None and t < since:
            continue
        if until is not None and t > until:
            continue
        kept.append(line)
    return kept


def diff_dumps(path_a: str, path_b: str, max_shown: int = 5) -> Tuple[str, int]:
    """Compare two dumps; returns (report text, exit status).

    Works on any matching pair of kinds (metrics, timeseries, trace).
    The full delta count is always reported; at most ``max_shown``
    individual deltas are printed (the CLI's ``--max-deltas``).
    """
    kind_a, payload_a = load_dump(path_a)
    kind_b, payload_b = load_dump(path_b)
    if kind_a != kind_b:
        return (f"cannot diff a {kind_a} dump against a {kind_b} dump", 2)
    if kind_a in ("metrics", "timeseries"):
        flatten = _metrics_series if kind_a == "metrics" else _timeseries_rows
        series_a = flatten(payload_a)
        series_b = flatten(payload_b)
        deltas: List[str] = []
        for key in sorted(set(series_a) | set(series_b)):
            if key not in series_b:
                deltas.append(f"  - {key} (only in {path_a})")
            elif key not in series_a:
                deltas.append(f"  + {key} (only in {path_b})")
            elif series_a[key] != series_b[key]:
                deltas.append(f"  ~ {key}: {series_a[key]!r} -> {series_b[key]!r}")
        if not deltas:
            return (f"identical: {len(series_a)} series, zero deltas", 0)
        report = [f"{len(deltas)} delta(s) across "
                  f"{len(set(series_a) | set(series_b))} series:"]
        report.extend(deltas[:max_shown])
        if len(deltas) > max_shown:
            report.append(f"  ... and {len(deltas) - max_shown} more")
        return ("\n".join(report), 1)
    lines_a: List[str] = payload_a
    lines_b: List[str] = payload_b
    if lines_a == lines_b:
        return (f"identical: {len(lines_a)} records, zero deltas", 0)
    differing = [
        i for i, (line_a, line_b) in enumerate(zip(lines_a, lines_b))
        if line_a != line_b
    ]
    extra = abs(len(lines_a) - len(lines_b))
    report = [
        f"traces differ: {len(lines_a)} records vs {len(lines_b)} records, "
        f"{len(differing) + extra} delta(s)"
    ]
    for i in differing[:max_shown]:
        report.append(f"  record {i}:")
        report.append(f"    a: {lines_a[i]}")
        report.append(f"    b: {lines_b[i]}")
    if len(differing) > max_shown:
        report.append(f"  ... and {len(differing) - max_shown} more")
    if not differing:
        longer = path_a if len(lines_a) > len(lines_b) else path_b
        report.append(
            f"  common prefix identical; {longer} has "
            f"{extra} extra record(s)"
        )
    return ("\n".join(report), 1)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, filter, and diff repro.obs trace/metrics dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-category / per-series totals")
    p_sum.add_argument("file", help="trace JSONL or metrics JSON dump")
    p_sum.add_argument("--category", help="restrict a trace summary to one category")

    p_filter = sub.add_parser("filter", help="print matching trace lines verbatim")
    p_filter.add_argument("file", help="trace JSONL dump")
    p_filter.add_argument("--category", help="keep only this category")
    p_filter.add_argument("--since", type=float, help="keep records with t >= SINCE")
    p_filter.add_argument("--until", type=float, help="keep records with t <= UNTIL")

    p_diff = sub.add_parser("diff", help="compare two dumps of the same kind")
    p_diff.add_argument("file_a")
    p_diff.add_argument("file_b")
    p_diff.add_argument(
        "--max-deltas", type=int, default=5, metavar="N",
        help="show at most N individual deltas (the count is always full)",
    )

    p_spans = sub.add_parser(
        "spans", help="reconstruct per-flow admission audit spans from a trace"
    )
    p_spans.add_argument("file", help="trace JSONL dump (merged traces work too)")
    p_spans.add_argument("--flow", help="keep only spans for this flow id")
    p_spans.add_argument(
        "--outcome",
        help="keep only spans with this outcome (admit/reject/renege/timeout/pending)",
    )
    p_spans.add_argument(
        "--format", choices=("text", "jsonl"), default="text",
        help="text table with an outcome tally, or canonical JSONL",
    )

    p_merge = sub.add_parser(
        "merge", help="deterministic (t, recorder, i)-keyed merge of traces"
    )
    p_merge.add_argument("files", nargs="+", help="trace JSONL dumps to merge")
    p_merge.add_argument(
        "-o", "--output", help="write the merged stream here instead of stdout"
    )
    return parser


def run_spans(
    path: str,
    flow: Optional[str] = None,
    outcome: Optional[str] = None,
    fmt: str = "text",
) -> str:
    """The ``spans`` subcommand body: assemble, filter, render."""
    kind, payload = load_dump(path)
    if kind != "trace":
        raise SystemExit(f"{path} is a {kind} dump; spans works on traces")
    spans = assemble_spans(parse_lines(payload))
    if flow is not None:
        spans = [s for s in spans if s.flow == flow]
    if outcome is not None:
        spans = [s for s in spans if s.outcome == outcome]
    if fmt == "jsonl":
        return "\n".join(spans_to_jsonl(spans))
    counts = span_counts(spans)
    tally = ", ".join(
        f"{name}={counts[name]}" for name in sorted(counts) if counts[name]
    )
    header = f"{len(spans)} span(s)" + (f"  ({tally})" if tally else "")
    body = format_spans(spans)
    return header + ("\n" + body if body else "")


def run_merge(paths: List[str], output: Optional[str] = None) -> int:
    """The ``merge`` subcommand body; returns the process exit status."""
    try:
        merged = merge_files(paths)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output is not None:
        write_artifact(Path(output), "trace", merged)
        print(f"merged {len(paths)} stream(s), {len(merged)} records -> {output}",
              file=sys.stderr)
    else:
        sys.stdout.write(encode_artifact("trace", merged))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            print(summarize(args.file, category=args.category))
            return 0
        if args.command == "filter":
            for line in filter_trace(args.file, category=args.category,
                                     since=args.since, until=args.until):
                print(line)
            return 0
        if args.command == "spans":
            out = run_spans(args.file, flow=args.flow, outcome=args.outcome,
                            fmt=args.format)
            if out:
                print(out)
            return 0
        if args.command == "merge":
            return run_merge(args.files, output=args.output)
        report, status = diff_dumps(args.file_a, args.file_b,
                                    max_shown=args.max_deltas)
        print(report)
        return status
    except BrokenPipeError:
        # Downstream (e.g. ``| head``) closed the pipe; point stdout at
        # devnull so interpreter shutdown's flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
