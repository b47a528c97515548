"""Acceptance suite: nine release criteria, one test and one printed
PASS/FAIL line each.

Criteria 5-7 share a single desk-scale benchmark run (session fixture).
Each criterion asserts its stated tolerance; a failing line still reports
the measured quantity so the shortfall is visible in the output.
"""

import math
import time

import numpy as np
import pytest

import conftest
from conftest import random_tiny_instance
from test_solvers import probes_of, scan_step, tiny_tuple

from latmax import (
    AlgorithmConfig,
    CSV_HEADER,
    ExperimentGrid,
    ProblemInstance,
    aggregate_by_n,
    check_dr_submodular,
    check_lattice_submodular,
    check_monotone,
    coordinate_product,
    exact_bruteforce,
    expand_grid,
    generate_instance,
    greedy_lattice,
    guarantee_bound,
    read_records,
    run_matrix,
    series_queries_vs_b,
    sgl,
    soma_dr_i,
    unit,
    weighted_concave_sqrt,
    weighted_linear,
    write_grid_file,
)
from latmax.cli import main

DESK_MASTER_SEED = 20240817
DESK_ALGORITHMS = ("sgl", "soma-dr-i", "ssg")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def desk_records(tmp_path_factory):
    """One desk-grid benchmark run shared by the trend criteria."""
    out = tmp_path_factory.mktemp("acceptance") / "desk.csv"
    t0 = time.perf_counter()
    run_matrix(ExperimentGrid(), DESK_ALGORITHMS, DESK_MASTER_SEED, out)
    elapsed = time.perf_counter() - t0
    return read_records(out), elapsed


def test_criterion_1_deterministic_solvers_match_bruteforce(rng):
    t0 = time.perf_counter()
    config = AlgorithmConfig(epsilon=0.01)
    mismatches = 0
    checked = 0
    for kind, count in (("weighted-linear", 100), ("weighted-concave-sqrt", 30)):
        for _ in range(count):
            instance = random_tiny_instance(rng, max_n=5, max_b=3, max_r=6,
                                            kinds=(kind,))
            opt = exact_bruteforce(instance)
            for solver in (soma_dr_i, greedy_lattice):
                sol = solver(instance, config)
                assert instance.is_feasible(sol.x)
                if kind == "weighted-linear":
                    checked += 1
                    if sol.value != opt.value:
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, "deterministic solvers exactly match brute force",
            mismatches == 0 and checked == 200 and elapsed < 60.0,
            f"{checked} modular comparisons, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_probabilistic_approximation_bound():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(24680))
    hits = total = 0
    for i in range(40):
        n = int(rng.integers(1, 7))
        w = rng.integers(1, 101, size=n)
        objective = weighted_linear(w) if i % 2 else weighted_concave_sqrt(w)
        instance = ProblemInstance(n=n, b=rng.integers(1, 5, size=n),
                                   r=int(rng.integers(1, 9)), objective=objective)
        opt = exact_bruteforce(instance).value
        bound = guarantee_bound("sgl", n, instance.r, 1.0 / (4.0 * n))
        for seed in range(5):
            sol = sgl(instance, AlgorithmConfig(seed=seed))
            total += 1
            if sol.value >= bound * opt:
                hits += 1
    fraction = hits / total
    elapsed = time.perf_counter() - t0
    _report(2, "sgl clears the reported guarantee on tiny instances",
            total == 200 and fraction >= 0.5 and elapsed < 120.0,
            f"empirical fraction {fraction:.3f} over {total} runs, {elapsed:.1f}s")


def test_criterion_3_binary_search_equals_linear_scan():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(13579))
    disagreements = over_budget = 0
    for _ in range(1000):
        objective, x, e, k_max, theta = tiny_tuple(rng)
        expected = scan_step(objective, x, e, k_max, theta)
        hit, probes = probes_of(objective, x, e, k_max, theta)
        if (None if hit is None else hit[0]) != expected:
            disagreements += 1
        if probes > math.ceil(math.log2(k_max + 1)):
            over_budget += 1
    elapsed = time.perf_counter() - t0
    _report(3, "step search agrees with exhaustive scan under the probe budget",
            disagreements == 0 and over_budget == 0 and elapsed < 30.0,
            f"1000 calls, {disagreements} disagreements, "
            f"{over_budget} probe overruns, {elapsed:.1f}s")


def test_criterion_4_step_cap_and_per_pass_query_bounds():
    grid = ExperimentGrid()
    cells = [c for c in expand_grid(grid, DESK_MASTER_SEED) if c.repetition == 0]
    cap_violations = query_violations = passes = 0
    for cell in cells:
        instance = generate_instance(cell.n, cell.r, cell.b_pivot, cell.seed)
        cap = min(int(instance.b.max()), instance.r)
        probe_bound = math.ceil(math.log2(cap + 1))
        trace = []
        sgl(instance, AlgorithmConfig(epsilon=grid.epsilon_for(cell.n),
                                      seed=cell.seed), trace=trace)
        for stats in trace:
            passes += 1
            if stats.max_step_cap > cap:
                cap_violations += 1
            if stats.queries > stats.sample_size * probe_bound + 1:
                query_violations += 1
        if cell.n == 25:  # deterministic sweep instrumented on the small column
            trace = []
            soma_dr_i(instance, AlgorithmConfig(epsilon=grid.epsilon_for(cell.n),
                                                seed=cell.seed), trace=trace)
            for stats in trace:
                passes += 1
                if stats.max_step_cap > cap:
                    cap_violations += 1
    _report(4, "step caps and per-pass query counts stay within bounds",
            cap_violations == 0 and query_violations == 0 and passes > 0,
            f"{passes} instrumented passes, {cap_violations} cap violations, "
            f"{query_violations} query-bound violations")


def test_criterion_5_query_cost_ordering_by_n(desk_records):
    records, elapsed = desk_records
    rows = aggregate_by_n(records)
    by_n = {}
    for row in rows:
        by_n.setdefault(row.group_key[0], {})[row.algorithm] = row.mean_queries
    orderings = {n: (q["sgl"], q["soma-dr-i"], q["ssg"])
                 for n, q in sorted(by_n.items())}
    ok = all(a < b < c for a, b, c in orderings.values()) and elapsed < 900.0
    detail = "; ".join(f"n={n}: {a:.0f} < {b:.0f} < {c:.0f}"
                       for n, (a, b, c) in orderings.items())
    _report(5, "mean queries ordered sgl < soma-dr-i < ssg at every n",
            ok, f"{detail}; bench {elapsed:.0f}s")


def test_criterion_6_value_parity_with_ssg(desk_records):
    records, _ = desk_records
    rows = aggregate_by_n(records)
    by_n = {}
    for row in rows:
        by_n.setdefault(row.group_key[0], {})[row.algorithm] = row.mean_value
    ratios = {n: v["sgl"] / v["ssg"] for n, v in sorted(by_n.items())}
    _report(6, "mean sgl value within 3% of ssg at every n",
            all(ratio >= 0.97 for ratio in ratios.values()),
            "; ".join(f"n={n}: {ratio:.4f}" for n, ratio in ratios.items()))


def test_criterion_7_query_growth_in_availability(desk_records):
    records, _ = desk_records
    series = series_queries_vs_b(records, n=100, r=50)
    ssg_q = [q for _, q in series["ssg"]]
    sgl_q = [q for _, q in series["sgl"]]
    ssg_increasing = len(ssg_q) == 6 and all(a < b for a, b in zip(ssg_q, ssg_q[1:]))
    sgl_ratio = max(sgl_q) / min(sgl_q)
    _report(7, "ssg queries grow with availability while sgl stays flat",
            ssg_increasing and sgl_ratio <= 1.5,
            f"ssg strictly increasing: {ssg_increasing}; "
            f"sgl max/min ratio {sgl_ratio:.3f} (tolerance 1.5)")


def test_criterion_8_structure_checkers():
    t0 = time.perf_counter()
    weights = [3, 17, 41, 76, 100]
    boxes = [np.array([9, 9]), np.array([4, 4, 4, 4]), np.full(5, 9)]
    all_good = True
    for make in (weighted_linear, weighted_concave_sqrt):
        for box in boxes:
            objective = make(weights[:len(box)])
            for check in (check_monotone, check_dr_submodular,
                          check_lattice_submodular):
                ok, witness = check(objective, box)
                all_good = all_good and ok and witness is None

    bad = coordinate_product(2)
    dr_ok, dr_witness = check_dr_submodular(bad, np.array([2, 2]))
    x, y, e = dr_witness
    dr_genuine = (bad(x + unit(2, int(e))) - bad(x)) < (bad(y + unit(2, int(e))) - bad(y))
    lat_ok, lat_witness = check_lattice_submodular(bad, np.array([1, 1]))
    u, v = lat_witness
    lat_genuine = bad(u) + bad(v) < bad(np.minimum(u, v)) + bad(np.maximum(u, v))
    elapsed = time.perf_counter() - t0
    _report(8, "checkers certify the built-ins and reject the planted product",
            all_good and not dr_ok and dr_genuine and not lat_ok and lat_genuine
            and elapsed < 30.0,
            f"6 objective/box certifications, both rejections witnessed, {elapsed:.1f}s")


def test_criterion_9_bench_run_reproducibility(tmp_path):
    grid = ExperimentGrid(n_values=(10, 16), r_fractions=(0.5, 1.0), b_pivots=3,
                          repetitions=2, timeout_s=300.0)
    grid_file = tmp_path / "grid.txt"
    write_grid_file(grid, grid_file)
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = main(["bench", "run", "--grid", str(grid_file),
                     "--master-seed", "424242", "--out", str(out)])
        assert code == 0
        outputs.append(out / "results.csv")
    wall_col = CSV_HEADER.index("wall_time_s")
    first = [line.split(",") for line in outputs[0].read_text().splitlines()]
    second = [line.split(",") for line in outputs[1].read_text().splitlines()]
    stripped = [[[c for i, c in enumerate(row) if i != wall_col] for row in run]
                for run in (first, second)]
    _report(9, "repeated bench runs are identical outside wall-time",
            len(first) > 1 and stripped[0] == stripped[1],
            f"{len(first) - 1} rows compared")
