"""Compare two full-set reports: ``python -m bench.compare A.json B.json``.

``A`` is the parent (the base of every ratio), ``B`` the change.  One row
per workload and end-to-end metric with both medians, quartiles and the
ratio ``B / A``; the verdict is taken against the bound the benchmark fixed
(``BENCHMARK.json``):

* ``worse`` / ``better`` — ``B``'s median is beyond the bound on that side;
* ``same`` — within the bound;
* ``unresolved`` — the parent's own interquartile spread exceeds the bound,
  so a difference of that size cannot be told from noise — unless every
  run of one side beats every run of the other, which decides it.

Exact counts and physics digests are compared with tolerance 0 and
reported.  The exit status is 1 on any ``worse`` or a higher
``failed_share``, 2 on reports that cannot be compared, else 0.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from bench import ROOT
from bench.metrics import EXACT
from bench.suite import SCHEMA


def load(path: str) -> Dict[str, Any]:
    """A report, refused unless it is a full, comparable set."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {report.get('schema')!r}, want {SCHEMA}")
    if not report.get("comparable"):
        raise ValueError(f"{path}: a quick or partial report is not comparable")
    return report


def bounds() -> Dict[str, Tuple[str, float]]:
    """Metric name -> (better, bound) from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """better / same / worse / unresolved for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B worse than A, as a share of A's median.
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    a_runs = [sign * v for v in a["samples"]]
    b_runs = [sign * v for v in b["samples"]]
    if (a["q3"] - a["q1"]) / a["median"] > bound:
        if max(b_runs) < min(a_runs):
            return "better"
        if min(b_runs) > max(a_runs):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _cell(stats: Dict[str, Any]) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    """The comparison as printable lines, and the exit status."""
    limits = bounds()
    lines = [
        f"base A: {a['params']['command']}   B: {b['params']['command']}",
        f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'B/A':>7}  verdict (bound)",
    ]
    status = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<16} missing from B")
            status = 1
            continue
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"][metric]
            better, bound = limits[metric]
            word = verdict(sa, sb, better, bound)
            if word == "worse":
                status = 1
            lines.append(
                f"{name:<16} {metric:<12} {_cell(sa):>32} {_cell(sb):>32} "
                f"{sb['median'] / sa['median']:>7.3f}  {word} ({bound:g})"
            )
        share = f"{wa['failed_share']:g} -> {wb['failed_share']:g}"
        if wb["failed_share"] > wa["failed_share"]:
            status = 1
            share += "  HIGHER"
        lines.append(f"{name:<16} failed_share {share}")
        if wa["physics_digest"] != wb["physics_digest"]:
            # Tier-1's golden fixtures own physics; here it is only reported.
            lines.append(f"{name:<16} physics_digest differs")
        moved = [
            f"{metric} {wa['per_layer'][metric]:g} -> {wb['per_layer'][metric]:g}"
            for metric in EXACT
            if metric in wa["per_layer"] and metric in wb["per_layer"]
            and wa["per_layer"][metric] != wb["per_layer"][metric]
        ]
        for change in moved:
            lines.append(f"{name:<16} exact count moved: {change}")
        if not moved:
            lines.append(f"{name:<16} exact counts identical")
    return lines, status


def main(argv: List[str]) -> int:
    """Print the comparison of two report files."""
    if len(argv) != 2:
        print("usage: python -m bench.compare A.json B.json", file=sys.stderr)
        return 2
    try:
        a, b = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    lines, status = compare(a, b)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
