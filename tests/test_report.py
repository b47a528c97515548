"""Aggregation and rendering tests for the benchmark reporting layer."""

import dataclasses
import random

import pytest

from latmax import (
    AggregateRow,
    RunRecord,
    aggregate,
    aggregate_by_n,
    render_pivot,
    render_rows,
    render_series,
    series_queries_vs_b,
    table_by_n,
)


def rec(algorithm="sgl", n=25, r=12, b_pivot=3, seed=1, value=10.0,
        queries=100, wall=0.5, stalled=False, timed_out=False):
    return RunRecord(algorithm=algorithm, n=n, r=r, b_pivot=b_pivot, seed=seed,
                     instance_hash="f" * 16, value=value, queries=queries,
                     wall_time_s=wall, stalled=stalled, timed_out=timed_out,
                     guarantee_bound=0.5)


class TestAggregate:
    def test_single_record_means(self):
        rows = aggregate_by_n([rec(queries=500)])
        assert len(rows) == 1
        row = rows[0]
        assert row.algorithm == "sgl"
        assert row.group_key == (25,)
        assert row.mean_queries == 500.0
        assert row.run_count == 1
        assert row.timeout_count == 0

    def test_two_records_average(self):
        rows = aggregate_by_n([rec(queries=400, seed=1), rec(queries=600, seed=2)])
        assert rows[0].mean_queries == 500.0
        assert rows[0].run_count == 2

    def test_timed_out_runs_excluded_from_means(self):
        rows = aggregate_by_n([
            rec(queries=100, value=5.0),
            rec(queries=999999, value=0.0, timed_out=True),
        ])
        row = rows[0]
        assert row.mean_queries == 100.0
        assert row.mean_value == 5.0
        assert row.run_count == 1
        assert row.timeout_count == 1

    def test_all_timed_out_keeps_row_with_missing_means(self):
        rows = aggregate_by_n([rec(timed_out=True), rec(timed_out=True, seed=2)])
        row = rows[0]
        assert row.mean_queries is None
        assert row.mean_value is None
        assert row.run_count == 0
        assert row.timeout_count == 2

    def test_permutation_invariant(self):
        records = [rec(algorithm=a, n=n, seed=s, queries=100 * s, value=float(s))
                   for a in ("sgl", "ssg") for n in (25, 50) for s in range(1, 6)]
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        assert aggregate_by_n(records) == aggregate_by_n(shuffled)

    def test_custom_grouping_key(self):
        records = [rec(b_pivot=p, seed=s) for p in (2, 7) for s in (1, 2)]
        rows = aggregate(records, key_fn=lambda r: (r.n, r.b_pivot))
        assert [row.group_key for row in rows] == [(25, 2), (25, 7)]


class TestTableByN:
    def test_returns_rows_and_pivot_text(self):
        rows, text = table_by_n([rec(), rec(algorithm="ssg", queries=900)], "queries")
        assert {row.algorithm for row in rows} == {"sgl", "ssg"}
        assert text == ("algorithm  n=25\n"
                        "sgl        100.0\n"
                        "ssg        900.0\n")

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            table_by_n([rec()], "wall_time")

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="no records"):
            table_by_n([], "queries")


class TestPivotRendering:
    def test_missing_cells_render_as_dash(self):
        records = [rec(algorithm="sgl", n=25), rec(algorithm="ssg", n=50)]
        text = render_pivot(aggregate_by_n(records), "queries")
        assert text == ("algorithm  n=25   n=50\n"
                        "sgl        100.0  -\n"
                        "ssg        -      100.0\n")

    def test_all_timeout_cell_renders_as_dash(self):
        records = [rec(timed_out=True), rec(algorithm="ssg", queries=42)]
        text = render_pivot(aggregate_by_n(records), "queries")
        assert text == ("algorithm  n=25\n"
                        "sgl        -\n"
                        "ssg        42.0\n")

    def test_round_trip_full_precision(self):
        records = [rec(queries=q, seed=s) for s, q in enumerate([311, 421, 733])]
        rows = aggregate_by_n(records)
        text = render_pivot(rows, "queries")
        assert text == ("algorithm  n=25\n"
                        "sgl        488.3333333333333\n")
        assert float(text.split()[-1]) == rows[0].mean_queries  # exact, not approx


class TestLongFormRendering:
    def test_round_trip_is_exact(self):
        records = [rec(algorithm=a, n=n, seed=s, queries=s * 137, value=s / 7.0,
                       wall=s * 0.013, timed_out=(s == 3))
                   for a in ("sgl", "soma-dr-i") for n in (25, 100)
                   for s in range(1, 5)]
        rows = aggregate_by_n(records)
        lines = render_rows(rows).splitlines()
        assert lines[0].split() == [f.name for f in dataclasses.fields(AggregateRow)]
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            cells = line.split()
            assert cells == [row.algorithm, str(row.group_key[0]), repr(row.mean_value),
                             repr(row.mean_queries), repr(row.mean_wall_time_s),
                             str(row.run_count), str(row.timeout_count)]
            # every float cell reads back as the exact mean
            assert [float(c) for c in cells[2:5]] == [
                row.mean_value, row.mean_queries, row.mean_wall_time_s]

    def test_round_trip_with_missing_means(self):
        rows = [AggregateRow(algorithm="ssg", group_key=(100, 50),
                             mean_value=None, mean_queries=None,
                             mean_wall_time_s=None, run_count=0, timeout_count=5)]
        assert render_rows(rows) == (
            "algorithm  group_key  mean_value  mean_queries  mean_wall_time_s  "
            "run_count  timeout_count\n"
            "ssg        100,50     -           -             -                 "
            "0          5\n")


class TestSeries:
    def setup_method(self):
        self.records = [
            rec(algorithm=a, n=100, r=50, b_pivot=p, seed=s,
                queries=base * p + s, value=50.0)
            for a, base in (("sgl", 7), ("ssg", 90))
            for p in (2, 11, 25, 7, 16, 20)
            for s in (1, 2)
        ]

    def test_points_sorted_by_pivot(self):
        series = series_queries_vs_b(self.records, n=100, r=50)
        assert set(series) == {"sgl", "ssg"}
        for points in series.values():
            pivots = [p for p, _ in points]
            assert pivots == sorted(pivots) == [2, 7, 11, 16, 20, 25]

    def test_means_per_pivot(self):
        series = series_queries_vs_b(self.records, n=100, r=50)
        assert series["ssg"][0] == (2, 90 * 2 + 1.5)

    def test_missing_slice_is_an_error(self):
        with pytest.raises(ValueError, match="no records"):
            series_queries_vs_b(self.records, n=100, r=999)

    def test_all_timeout_groups_left_out(self):
        extra = [rec(algorithm="soma-dr-i", n=100, r=50, b_pivot=p, timed_out=True)
                 for p in (2, 7)]
        series = series_queries_vs_b(self.records + extra, 100, 50)
        assert "soma-dr-i" not in series

    def test_render_series_layout(self):
        series = {"sgl": [(2, 14.5), (7, 50.0)]}
        text = render_series(series, n=100, r=50)
        lines = text.splitlines()
        assert lines[0].startswith("# mean oracle queries vs b_pivot")
        assert "# algorithm: sgl" in lines
        assert "2 14.5" in lines
        assert "7 50.0" in lines
        # data lines parse as (pivot, mean) pairs
        pairs = [ln.split() for ln in lines if ln and not ln.startswith("#")]
        assert [(int(a), float(b)) for a, b in pairs] == [(2, 14.5), (7, 50.0)]
