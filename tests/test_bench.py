"""Harness tests: instance generation, grid expansion, CSV persistence,
and end-to-end run_matrix determinism on a micro grid."""

import dataclasses
import math
import re

import numpy as np
import pytest

from latmax import (
    CSV_HEADER,
    AlgorithmConfig,
    ExhaustivenessCapError,
    ExperimentGrid,
    GridCell,
    RunRecord,
    aggregate_by_n,
    expand_grid,
    full_scale_grid,
    generate_instance,
    guarantee_bound,
    instance_hash,
    mix_seed,
    parse_grid_file,
    pivot_values,
    read_records,
    run_matrix,
    solve,
    write_grid_file,
)
from latmax.bench import make_record, record_to_row, row_to_record

MICRO_GRID = ExperimentGrid(n_values=(6, 10), r_fractions=(0.5,), b_pivots=2,
                            repetitions=2, epsilon_rule="0.1", timeout_s=120.0)
MICRO_ALGOS = ("sgl", "soma-dr-i", "ssg", "greedy")


class TestGenerateInstance:
    def test_deterministic_in_seed(self):
        a = generate_instance(12, 6, 3, seed=987654321)
        b = generate_instance(12, 6, 3, seed=987654321)
        assert np.array_equal(a.objective.weights, b.objective.weights)
        assert np.array_equal(a.b, b.b)
        assert instance_hash(a) == instance_hash(b)

    def test_weights_sorted_within_range(self):
        inst = generate_instance(100, 50, 5, seed=4)
        w = inst.objective.weights
        assert list(w) == sorted(w)
        assert w.min() >= 1 and w.max() <= 100
        assert inst.objective.kind == "weighted-linear"

    def test_caps_cover_pivot_range(self):
        inst = generate_instance(200, 10, 1, seed=9)
        assert set(np.unique(inst.b)) <= {1, 2, 3, 4}
        wide = generate_instance(500, 10, 7, seed=9)
        assert wide.b.min() >= 7 and wide.b.max() <= 28

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_instance(0, 5, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(5, -1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(5, 5, 0, seed=0)

    def test_hash_separates_instances(self):
        hashes = {instance_hash(generate_instance(8, 4, 2, seed=s)) for s in range(20)}
        assert len(hashes) == 20
        assert all(len(h) == 16 for h in hashes)


def test_mix_seed_is_stable():
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(42, 7) == 14769051326987775908
    assert mix_seed(0, 0) != mix_seed(0, 1)
    assert 0 <= mix_seed(2 ** 64 - 1, 10 ** 6) < 2 ** 64


def test_pivot_values_span_the_budget_window():
    assert pivot_values(50, 6, 20, 2) == [2, 7, 11, 16, 20, 25]
    assert pivot_values(200, 6, 20, 2) == [10, 28, 46, 64, 82, 100]
    # tiny budgets collapse to fewer distinct pivots
    assert pivot_values(4, 6, 20, 2) == [1, 2]
    assert pivot_values(1, 6, 20, 2) == [1]


class TestExpandGrid:
    def test_desk_grid_keeps_large_budget_cells(self):
        cells = expand_grid(ExperimentGrid(), master_seed=0)
        combos = {(c.n, c.r, c.b_pivot) for c in cells}
        # budget of twice n with the smallest pivot survives the discard rule
        assert (100, 200, 10) in combos
        assert all(c.seed == mix_seed(0, c.index) for c in cells[:50])

    def test_repetitions_enumerated_per_cell(self):
        cells = expand_grid(MICRO_GRID, master_seed=5)
        reps = {}
        for c in cells:
            reps.setdefault((c.n, c.r, c.b_pivot), []).append(c.repetition)
        assert all(sorted(v) == [0, 1] for v in reps.values())

    def test_discard_rule_removes_oversubscribed_cells(self):
        grid = ExperimentGrid(n_values=(4,), r_fractions=(5.0,), repetitions=1)
        combos = {(c.n, c.r, c.b_pivot) for c in expand_grid(grid, master_seed=1)}
        # r=20 exceeds both 4*pivot and n*4*pivot only for the pivot-1 cell
        assert (4, 20, 1) not in combos
        assert (4, 20, 3) in combos

    def test_empty_expansion_is_an_error(self):
        grid = ExperimentGrid(n_values=(1,), r_fractions=(30.0,),
                              b_low_divisor=40, b_high_divisor=20, repetitions=1)
        with pytest.raises(ValueError, match="empty"):
            expand_grid(grid, master_seed=0)

    def test_cell_indices_are_dense(self):
        cells = expand_grid(MICRO_GRID, master_seed=11)
        assert [c.index for c in cells] == list(range(len(cells)))


class TestGridValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ExperimentGrid(n_values=())
        with pytest.raises(ValueError):
            ExperimentGrid(b_pivots=0)
        with pytest.raises(ValueError):
            ExperimentGrid(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentGrid(b_low_divisor=2, b_high_divisor=20)
        with pytest.raises(ValueError):
            ExperimentGrid(timeout_s=-1.0)

    @pytest.mark.parametrize("bad", [
        dict(n_values=(0,)),
        dict(n_values=(0, 25)),
        dict(n_values=(-5, 25)),
        dict(r_fractions=(-0.5,)),
        dict(r_fractions=(0.5, 0.0)),
        dict(r_fractions=(math.nan,)),
        dict(r_fractions=(math.inf,)),
        dict(timeout_s=math.nan),
        dict(b_high_divisor=0),
        dict(n_values=(6.5,)),
        dict(n_values=(25, 50.0)),
        dict(b_pivots=2.5),
        dict(repetitions=1.5),
        dict(b_low_divisor=20.0),
        dict(b_high_divisor=2.5),
        dict(n_values=(25, True)),  # bools are ints, but a grid file cannot read them back
        dict(r_fractions=(True,)),
        dict(b_pivots=True),
        dict(repetitions=True),
        dict(b_low_divisor=True, b_high_divisor=1),
        dict(b_high_divisor=True),
        dict(timeout_s=True),
        dict(timeout_s=np.False_),
    ])
    def test_rejects_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            ExperimentGrid(**bad)

    def test_epsilon_rule_parsing(self):
        assert ExperimentGrid().epsilon_for(100) == pytest.approx(1.0 / 400.0)
        assert ExperimentGrid(epsilon_rule="0.05").epsilon_for(100) == 0.05
        with pytest.raises(ValueError):
            ExperimentGrid(epsilon_rule="2.0")
        with pytest.raises(ValueError):
            ExperimentGrid(epsilon_rule="not-a-number")

    def test_full_scale_configuration(self):
        grid = full_scale_grid()
        assert grid.n_values == (100, 200, 500, 750)
        assert grid.timeout_s == 23400.0
        assert grid.repetitions == 5


class TestRecordRoundTrip:
    def test_row_round_trip_exact(self):
        rec = RunRecord(algorithm="sgl", n=25, r=12, b_pivot=3,
                        seed=16294208416658607535, instance_hash="ab12cd34ef56ab78",
                        value=1.0 / 3.0, queries=412, wall_time_s=0.12345678901234567,
                        stalled=False, timed_out=False, guarantee_bound=0.5312)
        assert row_to_record(record_to_row(rec)) == rec

    def test_none_fields_survive(self):
        rec = RunRecord(algorithm="ssg", n=10, r=5, b_pivot=2, seed=7,
                        instance_hash="0" * 16, value=None, queries=None,
                        wall_time_s=None, stalled=False, timed_out=True,
                        guarantee_bound=0.25)
        row = record_to_row(rec)
        assert row[6] == "" and row[7] == "" and row[8] == ""
        assert row_to_record(row) == rec
        for i in (0, 9, 11):  # algorithm, stalled and guarantee_bound are not Optional
            with pytest.raises(ValueError, match="not Optional"):
                row_to_record(row[:i] + [""] + row[i + 1:])

    def test_row_bytes_are_pinned(self):
        rec = RunRecord(algorithm="ssg", n=25, r=12, b_pivot=3, seed=2 ** 64 - 1,
                        instance_hash="ab12cd34ef56ab78", value=None, queries=None,
                        wall_time_s=0.1 + 0.2, stalled=True, timed_out=True,
                        guarantee_bound=1.0 - 1.0 / math.e)
        assert ",".join(record_to_row(rec)).encode() == (
            b"ssg,25,12,3,18446744073709551615,ab12cd34ef56ab78,,,"
            b"0.30000000000000004,true,true,0.6321205588285577")

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            row_to_record(["sgl", "1", "2"])

    def test_rejects_flag_text_other_than_true_false(self):
        row = record_to_row(RunRecord(algorithm="sgl", n=25, r=12, b_pivot=3, seed=1,
                                      instance_hash="0" * 16, value=1.0, queries=4,
                                      wall_time_s=0.5, stalled=False, timed_out=False,
                                      guarantee_bound=0.5))
        for i, text in ((9, "TRUE"), (10, "yes"), (9, "False"), (10, "1")):
            with pytest.raises(ValueError, match=repr(text)):
                row_to_record(row[:i] + [text] + row[i + 1:])


@pytest.mark.parametrize("algorithm, expected", [
    ("sgl", guarantee_bound("sgl", 6, 3, 0.1)),
    ("soma-dr-i", 1.0 - 1.0 / math.e - 0.1),
    ("ssg", 1.0 - 1.0 / math.e - 0.1),
    ("greedy", 1.0 - 1.0 / math.e),
    ("exact", 1.0),
])
def test_guarantee_bound_column_is_per_algorithm(algorithm, expected):
    instance = generate_instance(6, 3, 2, seed=5)
    config = AlgorithmConfig(epsilon=0.1, seed=5, algorithm=algorithm)
    rec = make_record(instance, 2, config, solve(instance, config))
    assert rec.guarantee_bound == pytest.approx(expected, rel=1e-15)


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.csv"
    records = run_matrix(MICRO_GRID, MICRO_ALGOS, master_seed=2024, out_path=out)
    return out, records


class TestRunMatrix:
    def test_csv_header_exact(self, micro_run):
        out, _ = micro_run
        first = out.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)
        assert first == ("algorithm,n,r,b_pivot,seed,instance_hash,value,queries,"
                         "wall_time_s,stalled,timed_out,guarantee_bound")

    def test_deterministic_algorithms_skip_repetitions(self, micro_run):
        out, _ = micro_run
        records = read_records(out)
        per_algo = {}
        for rec in records:
            per_algo.setdefault(rec.algorithm, []).append(rec)
        cells = len({(r.n, r.r, r.b_pivot) for r in records})
        assert len(per_algo["sgl"]) == cells * MICRO_GRID.repetitions
        assert len(per_algo["ssg"]) == cells * MICRO_GRID.repetitions
        assert len(per_algo["soma-dr-i"]) == cells
        assert len(per_algo["greedy"]) == cells

    def test_rows_round_trip(self, micro_run):
        out, records = micro_run
        assert read_records(out) == records  # the returned records are the rows
        for rec in records:
            assert row_to_record(record_to_row(rec)) == rec

    def test_instance_hash_constant_within_cell(self, micro_run):
        out, _ = micro_run
        by_cell = {}
        for rec in read_records(out):
            by_cell.setdefault((rec.n, rec.r, rec.b_pivot, rec.seed),
                               set()).add(rec.instance_hash)
        assert all(len(hashes) == 1 for hashes in by_cell.values())

    def test_all_runs_completed_and_feasible_values(self, micro_run):
        out, _ = micro_run
        for rec in read_records(out):
            assert not rec.timed_out
            assert rec.queries > 0
            assert rec.value is not None and rec.value > 0.0
            assert 0.0 < rec.guarantee_bound < 1.0

    def test_aggregates_cover_algorithm_by_n(self, micro_run):
        _, records = micro_run
        keys = {(row.algorithm, row.group_key) for row in aggregate_by_n(records)}
        assert keys == {(a, (n,)) for a in MICRO_ALGOS for n in MICRO_GRID.n_values}

    def test_rerun_identical_modulo_wall_time(self, micro_run, tmp_path):
        out, _ = micro_run
        again = tmp_path / "again.csv"
        run_matrix(MICRO_GRID, MICRO_ALGOS, master_seed=2024, out_path=again)
        first = [dataclasses.replace(r, wall_time_s=0.0) for r in read_records(out)]
        second = [dataclasses.replace(r, wall_time_s=0.0) for r in read_records(again)]
        assert first == second

    def test_unknown_algorithm_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        for algorithms, workers, message in [
            (("sgl", "mystery"), 1, "unknown algorithm 'mystery'"),
            ((), 1, "no algorithms requested"),
            (("sgl", "ssg", "sgl"), 1, "algorithm 'sgl' is listed twice"),
            (("sgl",), 2, "workers must be 1, got 2"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                run_matrix(MICRO_GRID, algorithms, 0, out, workers=workers)
            assert not out.exists()

    def test_zero_timeout_marks_every_row(self, tmp_path):
        grid = dataclasses.replace(MICRO_GRID, timeout_s=0.0, repetitions=1,
                                   n_values=(6,))
        out = tmp_path / "t0.csv"
        run_matrix(grid, ("sgl", "ssg"), master_seed=1, out_path=out)
        records = read_records(out)
        assert records
        for rec in records:
            assert rec.timed_out
            assert rec.wall_time_s == 0.0  # configured timeout is reported

    def test_failure_keeps_finished_rows(self, tmp_path):
        # exact refuses every n=30 box: the run stops at the first cell's exact
        # task, and the CSV keeps the ssg row finished before it
        grid = dataclasses.replace(MICRO_GRID, n_values=(30,), r_fractions=(1.0,),
                                   repetitions=1)
        out = tmp_path / "results.csv"
        with pytest.raises(ExhaustivenessCapError):
            run_matrix(grid, ("ssg", "exact"), master_seed=7, out_path=out)
        assert [r.algorithm for r in read_records(out)] == ["ssg"]


class TestGridFiles:
    def test_write_parse_round_trip(self, tmp_path):
        custom = ExperimentGrid(n_values=(25, 75), r_fractions=(0.25, 1.5),
                                b_pivots=4, b_low_divisor=10, b_high_divisor=3,
                                repetitions=2, epsilon_rule="0.05", timeout_s=42.5)
        path = tmp_path / "grid.txt"
        for grid in (custom, full_scale_grid(), ExperimentGrid(epsilon_rule="0.05")):
            write_grid_file(grid, path)
            assert parse_grid_file(path) == grid

    def test_default_grid_file_bytes(self, tmp_path):
        path = tmp_path / "grid.txt"
        write_grid_file(ExperimentGrid(), path)
        assert path.read_bytes() == (
            b"# benchmark grid\n"
            b"n_values = 25,50,100,200\n"
            b"r_fractions = 0.25,0.5,1.0,2.0\n"
            b"b_pivots = 6\n"
            b"b_low_divisor = 20\n"
            b"b_high_divisor = 2\n"
            b"repetitions = 5\n"
            b"epsilon_rule = 1/(4n)\n"
            b"timeout_s = 600.0\n")

    @pytest.mark.parametrize("line", ["n_values = 0", "n_values = 0,25",
                                      "r_fractions = -0.5", "timeout_s = nan",
                                      "b_high_divisor = 0"])
    def test_out_of_range_value_is_an_error(self, tmp_path, line):
        path = tmp_path / "grid.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=r"grid\.txt: "):
            parse_grid_file(path)

    def test_bad_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# grid\nn_values = 10,x\n")
        with pytest.raises(ValueError,
                           match=r"grid\.txt:2: bad value for n_values: invalid literal"):
            parse_grid_file(path)
        path.write_text("repetitions = 2.5\n")
        with pytest.raises(ValueError, match=r"grid\.txt:1: bad value for repetitions"):
            parse_grid_file(path)

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# only override n\nn_values = 10,20\n")
        grid = parse_grid_file(path)
        assert grid.n_values == (10, 20)
        assert grid.r_fractions == ExperimentGrid().r_fractions
        assert grid.timeout_s == 600.0

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n_values = 10\nworkers = 4\n")
        with pytest.raises(ValueError, match="unknown grid key"):
            parse_grid_file(path)

    def test_repeated_key_is_an_error(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n_values = 6\n# later\nn_values = 8\n")
        with pytest.raises(ValueError, match=r"grid\.txt:3: n_values already set on line 1"):
            parse_grid_file(path)

    def test_malformed_line_is_an_error(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("n_values 10,20\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_grid_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("\n# comment\nrepetitions = 3  # trailing note\n\n")
        assert parse_grid_file(path).repetitions == 3


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alg,n\nx,1\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_records(path)


def test_grid_cell_is_frozen():
    cell = GridCell(index=0, n=5, r=2, b_pivot=1, repetition=0, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cell.n = 6
