"""End-to-end CLI tests driving main() with in-process argv lists."""

import csv
import io
import math
import runpy
import sys
from pathlib import Path

import pytest

from latmax import (ALGORITHMS, CSV_HEADER, DETERMINISTIC_ALGORITHMS, ExperimentGrid,
                    read_records, solve, write_grid_file)
from latmax import bench, checks, full_scale_grid, solvers
from latmax.bench import row_to_record
from latmax.cli import main

TINY_GRID = ExperimentGrid(n_values=(6,), r_fractions=(0.5,), b_pivots=2,
                           repetitions=2, epsilon_rule="0.1", timeout_s=60.0)
DESK_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_bench.py"


def error_line(capsys) -> str:
    """The single stderr line of a command that failed before printing anything."""
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("latmax: error: ")
    return line


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

    @pytest.mark.parametrize("master_seed", ["-1", "18446744073709551621"])
    def test_out_of_range_master_seed_is_one_error_line(self, tmp_path, capsys, master_seed):
        # these aliased 2**64 - 1 and 5, and the run wrote a full CSV
        grid_file = tmp_path / "grid.txt"
        write_grid_file(TINY_GRID, grid_file)
        out = tmp_path / "o"
        code = main(["bench", "run", "--grid", str(grid_file),
                     "--master-seed", master_seed, "--out", str(out)])
        assert code == 2
        assert error_line(capsys) == \
            f"latmax: error: master seed must be an integer in [0, 2**64), got {master_seed}"
        assert list(tmp_path.iterdir()) == [grid_file]  # the seed is checked before --out is made

    @pytest.mark.parametrize("extra, message", [
        (["--algorithms", "sgl,mystery"], "unknown algorithm 'mystery'"),
        (["--grid", "missing.txt"], "No such file or directory: 'missing.txt'"),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, monkeypatch, extra,
                                         message):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "run", *extra, "--master-seed", "1", "--out", "o"])
        assert code == 2
        assert message in error_line(capsys)
        assert list(tmp_path.iterdir()) == []  # the request is checked before --out is made

    def test_refused_run_keeps_csv_header(self, tmp_path, capsys):
        # exact refuses the first desk cell, before any row is written
        code = main(["bench", "run", "--algorithms", "exact",
                     "--master-seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "cap is 1000000" in error_line(capsys)
        assert read_records(tmp_path / "results.csv") == []

    def test_full_scale_flag_selects_the_full_scale_grid(self, tmp_path, monkeypatch):
        # the matrix run is replaced, so nothing runs
        grids = []

        def run_matrix(grid, algorithms, master_seed, out_csv):
            grids.append(grid)
            return []

        monkeypatch.setattr(bench, "run_matrix", run_matrix)
        assert main(["bench", "run", "--full-scale", "--master-seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert grids == [full_scale_grid()]

    def test_grid_file_and_full_scale_flag_exclude_each_other(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.txt"
        write_grid_file(TINY_GRID, grid_file)
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "run", "--grid", str(grid_file), "--full-scale",
                  "--master-seed", "1", "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
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

    @pytest.mark.parametrize("algorithm", sorted(DETERMINISTIC_ALGORITHMS))
    def test_repeats_run_a_deterministic_algorithm_once(self, capsys, monkeypatch, algorithm):
        calls = []

        def counted(instance, config):
            calls.append(config.seed)
            return solve(instance, config)

        monkeypatch.setattr(solvers, "solve", counted)
        rows = []
        for extra in ([], ["--repeats", "4"]):
            assert main(["solve", "--n", "6", "--r", "3", "--b-pivot", "2",
                         "--algorithm", algorithm, "--seed", "13", *extra]) == 0
            rows.append(next(csv.reader(io.StringIO(capsys.readouterr().out))))
        assert calls == [13, 13]  # one run each
        wall_col = CSV_HEADER.index("wall_time_s")
        for row in rows:
            del row[wall_col]
        assert rows[0] == rows[1]

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
        ("ssg", ["--b-pivot", "1000000000"], "copy slots, cap is 1000000"),
        # instance_hash packs r as int64: this used to exit 1 with a struct.error
        ("greedy", ["--n", "3", "--r", "9223372036854775808", "--b-pivot", "1"],
         "copy budget r must be in [0, 2**63), got 9223372036854775808"),
        ("sgl", ["--epsilon", "1e-17"], "epsilon 1e-17 is too small to decay the threshold"),
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

    def test_series_missing_slice_fails_loudly(self, bench_run_dir, tmp_path, capsys):
        code = main(["report", "series", "--in", str(bench_run_dir / "results.csv"),
                     "--n", "999", "--r", "3", "--out", str(tmp_path)])
        assert code == 2
        assert error_line(capsys) == "latmax: error: no records for n=999, r=3"

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n", "unexpected CSV header"),
        (",".join(CSV_HEADER) + "\n" + "x" * 200_000 + "\n",
         "field larger than field limit"),  # a csv.Error, not a ValueError
        (None, "No such file or directory"),
    ])
    def test_unreadable_tables_input_is_one_error_line(self, tmp_path, capsys, text,
                                                       message):
        path = tmp_path / "results.csv"
        if text is not None:
            path.write_text(text)
        code = main(["report", "tables", "--in", str(path), "--metric", "queries"])
        assert code == 2
        assert message in error_line(capsys)


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


def test_desk_script_stops_at_the_first_failed_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(DESK_SCRIPT), "--algorithms", "exact",
                                      "--out", str(tmp_path)])
    assert runpy.run_path(str(DESK_SCRIPT))["main"]() == 2
    assert "cap is 1000000" in error_line(capsys)  # and no "== mean" table
