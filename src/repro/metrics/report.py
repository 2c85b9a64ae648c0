"""Plain-text result tables in the style the paper's figures report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class Row:
    """One data point of an experiment: an x-value, a system, and metrics."""

    x: Any
    system: str
    metrics: Dict[str, float] = field(default_factory=dict)


def format_table(
    title: str,
    rows: Sequence[Row],
    metric_order: Sequence[str] = (),
) -> str:
    """Render rows as a fixed-width table grouped by x-value."""
    metrics: List[str] = list(metric_order)
    for row in rows:
        for key in row.metrics:
            if key not in metrics:
                metrics.append(key)
    # Per-column widths grow with content (long metric names, multi-digit-GB
    # bandwidths) but never shrink below the historical 12/10/16 minimums, so
    # tables whose cells fit render byte-identically to earlier releases.
    x_cells = [str(row.x) for row in rows]
    cell_rows = [
        [f"{row.metrics.get(m, float('nan')):.1f}" for m in metrics] for row in rows
    ]
    x_width = max([12, *(len(c) for c in x_cells)])
    system_width = max([10, *(len(row.system) for row in rows)] if rows else [10])
    # the +1 guarantees at least one space between adjacent metric columns
    # (they have no explicit separator) once content reaches the 16 minimum
    widths = [
        max([16, len(m) + 1, *(len(r[i]) + 1 for r in cell_rows)] if cell_rows else [16, len(m) + 1])
        for i, m in enumerate(metrics)
    ]
    lines = [title, "=" * len(title)]
    header = f"{'x':>{x_width}} {'system':>{system_width}}" + "".join(
        f"{m:>{w}}" for m, w in zip(metrics, widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row, cells in zip(rows, cell_rows):
        body = "".join(f"{c:>{w}}" for c, w in zip(cells, widths))
        lines.append(f"{str(row.x):>{x_width}} {row.system:>{system_width}}{body}")
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Row]) -> str:
    """Render rows as CSV (x, system, then one column per metric)."""
    metrics: List[str] = []
    for row in rows:
        for key in row.metrics:
            if key not in metrics:
                metrics.append(key)
    lines = ["x,system," + ",".join(metrics)]
    for row in rows:
        cells = ",".join(
            f"{row.metrics[m]:.3f}" if m in row.metrics else "" for m in metrics
        )
        lines.append(f"{row.x},{row.system},{cells}")
    return "\n".join(lines) + "\n"
