"""Plain-text table rendering for harness output."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

__all__ = ["render_table", "render_kv", "render_metrics"]


def render_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Render dict rows as an aligned ASCII table.

    The columns are the *ordered union* of every row's keys: each new key
    appears at the first row that introduces it, after the keys already
    seen.  (Taking the columns from ``rows[0]`` alone silently dropped any
    column absent from the first row — e.g. detector-perf columns when the
    first benchmark ran with ``--no-detect`` — so rows are not truncated to
    the first row's shape anymore.)  Missing cells render empty.
    """
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c, "")
            if isinstance(value, float):
                # Throughput-scale floats (events/s) read better without
                # fractional digits; small ratios keep two.
                text = (
                    f"{value:,.0f}" if abs(value) >= 10000
                    else f"{value:,.2f}"
                )
            elif isinstance(value, int):
                text = f"{value:,}"
            else:
                text = str(value)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    sep = "-+-".join("-" * widths[c] for c in columns)
    lines = [" | ".join(c.ljust(widths[c]) for c in columns), sep]
    for cells in rendered:
        lines.append(
            " | ".join(cell.rjust(widths[c]) for cell, c in zip(cells, columns))
        )
    return "\n".join(lines)


def render_kv(title: str, values: Mapping[str, Any]) -> str:
    """Render a titled key/value block (run-summary statistics).

    Used by the fuzz harness for its per-run totals; keys keep insertion
    order, values format like :func:`render_table` cells.
    """
    width = max((len(k) for k in values), default=0)
    lines = [title, "=" * len(title)]
    for key, value in values.items():
        if isinstance(value, float):
            text = f"{value:,.2f}"
        elif isinstance(value, int):
            text = f"{value:,}"
        else:
            text = str(value)
        lines.append(f"{key.ljust(width)}  {text}")
    return "\n".join(lines)


def render_metrics(metrics: Mapping[str, Any]) -> str:
    """Render an :class:`repro.obs.MetricsRegistry` dump (``as_dict()``).

    Counters become a key/value block; each histogram becomes one summary
    row (count / mean / interpolated q50/q95/q99 / bucket-bound p50/p99 /
    max).  The ``q*`` columns are linear-interpolation estimates
    (:func:`repro.obs.metrics.quantile_from_dump`) computed from the
    bucket counts, so dumps written before the quantile columns existed
    render fine.
    """
    from repro.obs.metrics import quantile_from_dump

    blocks: List[str] = []
    counters = metrics.get("counters") or {}
    if counters:
        blocks.append(render_kv("counters", dict(sorted(counters.items()))))
    histograms = metrics.get("histograms") or {}
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            rows.append(
                {
                    "histogram": name,
                    "count": h.get("count", 0),
                    "mean": round(h.get("mean", 0.0), 2),
                    "q50": round(quantile_from_dump(h, 0.50), 2),
                    "q95": round(quantile_from_dump(h, 0.95), 2),
                    "q99": round(quantile_from_dump(h, 0.99), 2),
                    "p50": h.get("p50", 0),
                    "p99": h.get("p99", 0),
                    "max": h.get("max", 0),
                }
            )
        blocks.append(render_table(rows))
    return "\n\n".join(blocks) if blocks else "(no metrics)"
