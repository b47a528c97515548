"""Aggregation and rendering of benchmark CSV records.

Means are taken over non-timed-out runs only; a group whose runs all timed
out keeps its row with every mean missing (rendered as "-").  render_rows
prints every AggregateRow field, floats in full repr precision; the pivot
layout is a compact per-metric view of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

METRICS = ("queries", "value")


@dataclass
class AggregateRow:
    """Means for one (algorithm, group_key) cell of the result matrix."""

    algorithm: str
    group_key: tuple
    mean_value: Optional[float]
    mean_queries: Optional[float]
    mean_wall_time_s: Optional[float]
    run_count: int        # runs that completed (not timed out)
    timeout_count: int


def _mean(values) -> Optional[float]:
    values = list(values)
    return sum(values) / len(values) if values else None


def aggregate(records, key_fn) -> list:
    """Group records by (algorithm, key_fn(record)) and average each group."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.algorithm, tuple(key_fn(rec))), []).append(rec)
    rows = []
    for algorithm, key in sorted(groups):
        recs = groups[(algorithm, key)]
        done = [rec for rec in recs if not rec.timed_out]
        rows.append(AggregateRow(
            algorithm=algorithm,
            group_key=key,
            mean_value=_mean(rec.value for rec in done),
            mean_queries=_mean(rec.queries for rec in done),
            mean_wall_time_s=_mean(rec.wall_time_s for rec in done),
            run_count=len(done),
            timeout_count=len(recs) - len(done),
        ))
    return rows


def aggregate_by_n(records) -> list:
    return aggregate(records, key_fn=lambda rec: (rec.n,))


def table_by_n(records, metric: str):
    """Aggregate by (algorithm, n); returns (rows, pivot text for metric)."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    rows = aggregate_by_n(records)
    return rows, render_pivot(rows, metric)


def render_pivot(rows: Sequence[AggregateRow], metric: str) -> str:
    """Algorithms down the side, one column per n, full-precision cells."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    n_values = sorted({row.group_key[0] for row in rows})
    algorithms = sorted({row.algorithm for row in rows})
    cells = {(row.algorithm, row.group_key[0]): getattr(row, "mean_" + metric)
             for row in rows}
    lines = [["algorithm"] + [f"n={n}" for n in n_values]]
    lines += [[algorithm] + [_cell(cells.get((algorithm, n))) for n in n_values]
              for algorithm in algorithms]
    return _align(lines)


def render_rows(rows: Sequence[AggregateRow]) -> str:
    """Long-form aligned table carrying every AggregateRow field exactly."""
    names = [f.name for f in fields(AggregateRow)]
    return _align([names] + [[_cell(getattr(row, name)) for name in names] for row in rows])


def _cell(value) -> str:
    """One table cell: - for a missing mean, keys comma-joined, full-precision numbers."""
    if value is None:
        return "-"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _align(lines) -> str:
    widths = [max(len(row[i]) for row in lines) for i in range(len(lines[0]))]
    out = []
    for row in lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def series_queries_vs_b(records, n: int, r: int) -> dict:
    """Mean queries per b_pivot for the (n, r) slice, one series per algorithm.

    Points come sorted by b_pivot from aggregate.  Groups whose runs all timed
    out are left out of their series.  Raises when the slice has no records.
    """
    slice_recs = [rec for rec in records if rec.n == n and rec.r == r]
    if not slice_recs:
        raise ValueError(f"no records for n={n}, r={r}")
    rows = aggregate(slice_recs, key_fn=lambda rec: (rec.b_pivot,))
    series = {}
    for row in rows:
        if row.mean_queries is None:
            continue
        series.setdefault(row.algorithm, []).append((row.group_key[0], row.mean_queries))
    return series


def render_series(series: dict, n: int, r: int) -> str:
    """Whitespace-delimited plot data: one block per algorithm."""
    out = [f"# mean oracle queries vs b_pivot, n={n} r={r}"]
    for algorithm in sorted(series):
        out.append("")
        out.append(f"# algorithm: {algorithm}")
        for pivot, mean_queries in series[algorithm]:
            out.append(f"{pivot} {repr(mean_queries)}")
    return "\n".join(out) + "\n"
