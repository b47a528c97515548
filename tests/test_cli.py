"""End-to-end CLI tests driving main() with in-process argv lists."""

import csv
import io
import math

import pytest

from latmax import ALGORITHMS, CSV_HEADER, ExperimentGrid, read_records, write_grid_file
from latmax import checks
from latmax.bench import row_to_record
from latmax.cli import main

TINY_GRID = ExperimentGrid(n_values=(6,), r_fractions=(0.5,), b_pivots=2,
                           repetitions=2, epsilon_rule="0.1", timeout_s=60.0)


@pytest.fixture(scope="module")
def bench_run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    grid_file = root / "grid.txt"
    write_grid_file(TINY_GRID, grid_file)
    out = root / "run"
    code = main(["bench", "run", "--grid", str(grid_file),
                 "--master-seed", "31", "--out", str(out)])
    assert code == 0
    return out


class TestBenchRun:
    def test_writes_results_csv(self, bench_run_dir):
        results = bench_run_dir / "results.csv"
        assert results.exists()
        records = read_records(results)
        assert {rec.algorithm for rec in records} == {"sgl", "soma-dr-i", "ssg", "greedy"}

    def test_prints_summary_table(self, bench_run_dir, capsys, tmp_path):
        grid_file = tmp_path / "grid.txt"
        write_grid_file(TINY_GRID, grid_file)
        main(["bench", "run", "--grid", str(grid_file),
              "--master-seed", "31", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "mean_queries" in out

    def test_rejected_grid_file_is_one_error_line(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.txt"
        grid_file.write_text("b_pivots = 0\n")
        code = main(["bench", "run", "--grid", str(grid_file),
                     "--master-seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"latmax: error: {grid_file}: b_pivots and repetitions must be >= 1\n"
        assert not (tmp_path / "o").exists()

    def test_algorithm_subset(self, tmp_path):
        grid_file = tmp_path / "grid.txt"
        write_grid_file(TINY_GRID, grid_file)
        out = tmp_path / "subset"
        main(["bench", "run", "--grid", str(grid_file), "--algorithms", "greedy",
              "--master-seed", "5", "--out", str(out)])
        records = read_records(out / "results.csv")
        assert {rec.algorithm for rec in records} == {"greedy"}


class TestSolve:
    def run_solve(self, capsys, *extra):
        code = main(["solve", "--n", "8", "--r", "4", "--b-pivot", "2",
                     "--algorithm", "sgl", "--seed", "13", *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_prints_single_csv_row(self, capsys):
        out = self.run_solve(capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1
        rec = row_to_record(rows[0])
        assert rec.algorithm == "sgl"
        assert (rec.n, rec.r, rec.b_pivot, rec.seed) == (8, 4, 2, 13)
        assert rec.queries > 0
        assert not rec.timed_out

    def test_deterministic_modulo_wall_time(self, capsys):
        first = csv.reader(io.StringIO(self.run_solve(capsys))).__next__()
        second = csv.reader(io.StringIO(self.run_solve(capsys))).__next__()
        wall_col = CSV_HEADER.index("wall_time_s")
        for i, (a, b) in enumerate(zip(first, second)):
            if i != wall_col:
                assert a == b

    def test_repeats_keep_best_value(self, capsys):
        single = row_to_record(next(csv.reader(io.StringIO(self.run_solve(capsys)))))
        best = row_to_record(next(csv.reader(io.StringIO(
            self.run_solve(capsys, "--repeats", "5")))))
        assert best.value >= single.value

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["solve", "--n", "4", "--r", "2", "--b-pivot", "1",
                  "--algorithm", "anneal", "--seed", "0"])

    def test_zero_budget_prints_a_row_for_every_algorithm(self, capsys):
        rows = []
        for algorithm in ALGORITHMS:
            assert main(["solve", "--n", "5", "--r", "0", "--b-pivot", "2",
                         "--algorithm", algorithm, "--seed", "1"]) == 0
            rows += csv.reader(io.StringIO(capsys.readouterr().out))
        records = [row_to_record(row) for row in rows]
        assert [rec.algorithm for rec in records] == list(ALGORITHMS)
        assert all(rec.value == 0.0 and rec.r == 0 for rec in records)
        # t_bar's full-coverage convention: sgl reports the epsilon of soma-dr-i
        assert records[0].guarantee_bound == 1.0 - 1.0 / math.e - 1.0 / 20.0

    def test_rejects_bad_repeats(self, capsys):
        code = main(["solve", "--n", "4", "--r", "2", "--b-pivot", "1",
                     "--algorithm", "sgl", "--seed", "0", "--repeats", "0"])
        assert code == 2

    @pytest.mark.parametrize("algorithm, extra, message", [
        ("sgl", ["--timeout", "nan"], "time_budget must be >= 0, got nan"),
        ("sgl", ["--epsilon", "2"], "epsilon must lie in (0, 1)"),
        ("sgl", ["--repeats", "0"], "--repeats must be >= 1"),
        ("exact", ["--n", "30", "--r", "30"], "cap is 1000000"),
    ])
    def test_rejected_value_is_one_error_line(self, capsys, algorithm, extra, message):
        code = main(["solve", "--n", "8", "--r", "6", "--b-pivot", "2",
                     "--algorithm", algorithm, "--seed", "7", *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        [line] = captured.err.splitlines()  # no traceback
        assert line.startswith("latmax: error: ") and message in line


class TestReport:
    def test_tables_round_trip_through_stdout(self, bench_run_dir, capsys):
        code = main(["report", "tables", "--in", str(bench_run_dir / "results.csv"),
                     "--metric", "queries"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("algorithm")
        assert "n=6" in out
        assert "mean_queries" in out  # long form follows the pivot

    def test_series_writes_plot_data(self, bench_run_dir, tmp_path, capsys):
        code = main(["report", "series", "--in", str(bench_run_dir / "results.csv"),
                     "--n", "6", "--r", "3", "--out", str(tmp_path)])
        assert code == 0
        data = (tmp_path / "queries_vs_b_n6_r3.dat").read_text()
        assert "# algorithm: sgl" in data

    def test_series_missing_slice_fails_loudly(self, bench_run_dir, tmp_path):
        with pytest.raises(ValueError):
            main(["report", "series", "--in", str(bench_run_dir / "results.csv"),
                  "--n", "999", "--r", "3", "--out", str(tmp_path)])


def test_bench_check_passes(capsys):
    assert main(["bench", "check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[check] ") and ": PASS" in line for line in lines)


def test_bench_check_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(checks, "step_search_matches_scan", lambda: (False, "planted"))
    assert main(["bench", "check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[check] binary search vs linear scan: FAIL  (planted)" in lines
    assert sum(": PASS" in line for line in lines) == 3


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["report"])
