"""Plain-text rendering of tables, CDFs and five-number bars.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output consistent and readable in pytest logs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.metrics.stats import percentile


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_cdf(values: Sequence[float], unit: str = "", scale: float = 1.0) -> str:
    """Summarize a distribution by its p10/p25/p50/p75/p90/p99 on one line."""
    if not values:
        return "(no samples)"
    parts = [
        f"p{q}={percentile(values, q) * scale:.3g}{unit}"
        for q in (10, 25, 50, 75, 90, 99)
    ]
    parts.append(f"n={len(values)}")
    return "  ".join(parts)


def format_summary(summary: Dict[str, float]) -> str:
    """Render a five-number summary dict from :func:`repro.metrics.stats.summarize`."""
    keys = ("min", "p10", "p50", "p90", "max")
    return "  ".join(f"{key}={summary[key]:.3g}" for key in keys)


def format_cell_metrics(results: Iterable) -> str:
    """Render per-cell runner metrics (:class:`repro.runner.RunResult`).

    One row per campaign cell: label, cache provenance, wall-clock,
    events processed and events/sec — the observability surface the CLI
    prints under each experiment's table.
    """
    rows = []
    for result in results:
        metrics = result.metrics
        rows.append(
            (
                result.spec.label(),
                metrics.source,
                f"{metrics.wall_time_s:.3f}",
                f"{metrics.events:,}",
                f"{metrics.events_per_sec:,.0f}",
            )
        )
    return format_table(
        ["cell", "source", "wall (s)", "events", "events/s"],
        rows,
        title="Campaign cells",
    )


__all__ = [
    "format_table",
    "format_cdf",
    "format_summary",
    "format_cell_metrics",
]
