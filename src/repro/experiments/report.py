"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and readable in
terminal logs.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from repro.experiments.lossload import LossLoadCurve


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a separator under the header row."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


def format_curves(curves: Sequence[LossLoadCurve], title: str = "") -> str:
    """Render loss-load curves as parameter/utilization/loss rows per label."""
    blocks = []
    if title:
        blocks.append(title)
    for curve in curves:
        rows = [
            (p.parameter, p.utilization, p.loss_probability, p.blocking_probability)
            for p in curve.points
        ]
        blocks.append(
            format_table(
                ("param", "utilization", "loss_prob", "blocking_prob"),
                rows,
                title=f"-- {curve.label}",
            )
        )
    return "\n\n".join(blocks)


def format_series(
    x_label: str,
    x: Sequence[object],
    series: Mapping[str, Sequence[object]],
    title: str = "",
) -> str:
    """Render aligned multi-series data (e.g. Figure 1's two panels)."""
    headers = [x_label] + list(series)
    rows = []
    for i, xi in enumerate(x):
        rows.append([xi] + [series[key][i] for key in series])
    return format_table(headers, rows, title=title)
