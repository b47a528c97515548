"""Acceptance suite: nine release criteria, one test and one printed
PASS/FAIL line each.

Criteria 5-7 share a single desk-scale benchmark run (session fixture).
Each criterion asserts its stated tolerance; a failing line still reports
the measured quantity so the shortfall is visible in the output.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import conftest

from latmax import (
    AlgorithmConfig,
    CSV_HEADER,
    ExperimentGrid,
    ProblemInstance,
    aggregate_by_n,
    exact_bruteforce,
    expand_grid,
    greedy_lattice,
    generate_instance,
    guarantee_bound,
    read_records,
    run_matrix,
    series_queries_vs_b,
    sgl,
    soma_dr_i,
    weighted_concave_sqrt,
    weighted_linear,
    write_grid_file,
)
from latmax import checks
from latmax.bench import record_to_row
from latmax.cli import main

DESK_MASTER_SEED = 20240817
DESK_ALGORITHMS = ("sgl", "soma-dr-i", "ssg")
# sha256 of the desk run's trajectory columns, one line per row
DESK_DIGEST = "ca274bf160808aedab0d2ce10f0604940ee982a5ae5b63c7b21bc76b9f90b0a5"
# sha256 of the desk run's n, r, b_pivot and guarantee_bound, one line per row
DESK_BOUND_DIGEST = "3e457f84c4da6eb208d1cbd2641a6f7944dfb24e138feffcf7e1a831802b7408"
# sha256 of x, queries, iterations and stalled of each seeded sqrt sgl run
SGL_SQRT_DIGEST = "4a0d0366d0fe15b406c5960f52b9a9679c192ecc9e713c8eb9290be62103527f"
# sha256 of x, value, queries, iterations and trace of each seeded sqrt greedy
# and soma-dr-i run at the sqrt-library sizes
UNIT_AND_SWEEP_SQRT_DIGEST = "e1a17bd9cc5c7a90046d20aee9c3bf6fce8ab08acadb4f4f5e4d09907315625e"


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


def test_criterion_1_deterministic_solvers_match_bruteforce():
    _report(1, "deterministic solvers exactly match brute force",
            *checks.deterministic_solvers_match_bruteforce())


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
    _report(3, "step search agrees with exhaustive scan under the probe budget",
            *checks.step_search_matches_scan())


def test_criterion_4_step_cap_and_per_pass_query_bounds():
    grid = ExperimentGrid()
    cells = [c for c in expand_grid(grid, DESK_MASTER_SEED) if c.repetition == 0]
    cap_violations = query_violations = passes = 0
    for cell in cells:
        instance = generate_instance(cell.n, cell.r, cell.b_pivot, cell.seed)
        cap = min(int(instance.b.max()), instance.r)
        probe_bound = math.ceil(math.log2(cap + 1))
        trace = []
        sgl(instance, AlgorithmConfig(epsilon=grid.epsilon, seed=cell.seed), trace=trace)
        for stats in trace:
            passes += 1
            if stats.max_step_cap > cap:
                cap_violations += 1
            if stats.queries > stats.sample_size * probe_bound + 1:
                query_violations += 1
        if cell.n == 25:  # deterministic sweep instrumented on the small column
            trace = []
            soma_dr_i(instance, AlgorithmConfig(epsilon=grid.epsilon, seed=cell.seed),
                      trace=trace)
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


def test_desk_trajectories_are_pinned(desk_records):
    # a faster hot path must leave every run's value, queries and flags as they were
    # and the grid's epsilon rule must give every row the bound it had
    records, _ = desk_records
    rows = [record_to_row(record) for record in records]

    def digest(*names):
        columns = [CSV_HEADER.index(name) for name in names]
        return hashlib.sha256("".join(",".join(row[i] for i in columns) + "\n"
                                      for row in rows).encode()).hexdigest()

    assert len(records) == 1023
    assert digest("algorithm", "seed", "instance_hash", "value", "queries", "stalled",
                  "timed_out") == DESK_DIGEST
    assert digest("n", "r", "b_pivot", "guarantee_bound") == DESK_BOUND_DIGEST


def test_criterion_8_structure_checkers():
    _report(8, "checkers certify the built-ins and reject the planted product",
            *checks.structure_checkers())


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


def sqrt_sgl_instances():
    """Seeded weighted-concave-sqrt sgl runs, n up to 200: caps low enough
    that commits fill elements and shrink the pool, and high enough that most
    commits leave it unchanged."""
    rng = np.random.Generator(np.random.PCG64(DESK_MASTER_SEED))
    for i in range(60):
        n = int(rng.integers(1, 201))
        w = rng.integers(1, 101, size=n)
        b = rng.integers(1, (4, 12, 60)[i % 3] + 1, size=n)
        r = int(rng.integers(1, int(b.sum()) + 1))
        eps = (None, 0.05, 0.3, 0.9)[i % 4]
        yield (ProblemInstance(n=n, b=b, r=r, objective=weighted_concave_sqrt(w)),
               AlgorithmConfig(epsilon=eps, seed=int(rng.integers(0, 2 ** 32))))


def test_sgl_sqrt_trajectories_are_pinned():
    # a faster sampler must leave every sqrt run's point, queries and flags as they were
    digest = hashlib.sha256()
    partial = 0  # elements left strictly between 0 and their caps
    for instance, config in sqrt_sgl_instances():
        sol = sgl(instance, config)
        partial += int(((sol.x > 0) & (sol.x < instance.b)).sum())
        digest.update(f"{sol.x.tolist()},{sol.queries},{sol.iterations},{sol.stalled}\n"
                      .encode())
    assert partial > 0
    assert digest.hexdigest() == SGL_SQRT_DIGEST


def sqrt_library_instances():
    """Weighted-concave-sqrt instances at perfbench's sqrt-library sizes,
    (n, r) from (50, 12) to (200, 100), built as it builds them, at three seeds."""
    for seed in (DESK_MASTER_SEED, 3, 17):
        rng = np.random.Generator(np.random.PCG64(seed))
        for n, r in ((50, 12), (50, 25), (100, 25), (100, 50), (200, 50), (200, 100)):
            w = 1 + (100 * np.arange(n) + rng.integers(0, 100, size=n)) // n
            pivot = max(1, r // 4)
            b = rng.integers(pivot, 4 * pivot + 1, size=n)
            yield ProblemInstance(n=n, b=b, r=r, objective=weighted_concave_sqrt(w))


def test_greedy_and_sweep_sqrt_trajectories_are_pinned():
    # faster unit-step scans and sweeps must leave every point, value, count and trace row
    digest = hashlib.sha256()
    for instance in sqrt_library_instances():
        for name, solver in (("greedy", greedy_lattice), ("soma-dr-i", soma_dr_i)):
            trace = []
            sol = solver(instance, AlgorithmConfig(algorithm=name), trace=trace)
            rows = [(int(t.queries), int(t.sample_size), int(t.max_step_cap), bool(t.committed),
                     t.value.hex(), None if t.theta is None else t.theta.hex()) for t in trace]
            digest.update(f"{name},{sol.x.tolist()},{sol.value.hex()},{sol.queries},"
                          f"{sol.iterations},{rows}\n".encode())
    assert digest.hexdigest() == UNIT_AND_SWEEP_SQRT_DIGEST
