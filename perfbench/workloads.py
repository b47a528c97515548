"""The benchmark's three workloads and their output checks.

Each workload drives latmax only through its public entry points, with one
caller in one process.  Entry points are looked up on their modules at call
time, so the traced run's timers see them.

- ssg-desk: ``bench.run_matrix`` with ``ssg`` on a slice of desk-grid cells at
  n=100 and n=200.  Per-query cost and the copy-slot sampler dominate it, and
  it never calls the step search.
- threshold-desk: ``bench.run_matrix`` with ``sgl`` and ``soma-dr-i`` over the
  whole desk grid, then the report step of ``scripts/run_desk_bench.py``.
  Many short runs, so binary-search step search, instance generation, CSV
  writes and reads and aggregation all show.
- sqrt-library: ``solvers.solve`` called directly on weighted-concave-sqrt
  instances, then ``exact`` on wide boxes with small budgets.  The objective
  is float-valued, there is no sampler and no CSV, and exact's enumeration
  sets the peak memory.

A run fails if it raises, times out, returns a value above the reference
optimum, or (sqrt-library) returns an infeasible point or, for greedy and
exact, a value below the optimum.  Every run of a repetition fails if the
repetition raises or its output digest differs from the expected one.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from latmax import bench, report, solvers
from latmax.lattice import ProblemInstance, weighted_concave_sqrt

import reference

# CSV columns hashed for the desk digests.  wall_time_s varies run to run and
# guarantee_bound is allowed to change meaning, so both are left out.
DESK_DIGEST_COLUMNS = ("algorithm", "seed", "instance_hash", "value", "queries",
                       "stalled", "timed_out")

# ssg slice of the desk grid: r = n/2 and r = n, the smallest and largest
# desk pivot, one repetition.  The n=200, r=200 cell samples from ~1e5 slots.
SSG_GRID = dict(n_values=(100, 200), r_fractions=(0.5, 1.0), b_pivots=2, repetitions=1)

# sqrt-library: (n, r) for greedy, sgl and soma-dr-i; (n, cap, r) for exact.
# r = n/4 and n/2 keep a repetition near 5 s, so a run holds several of them.
SQRT_SIZES = ((50, 12), (50, 25), (100, 25), (100, 50), (200, 50), (200, 100))
SQRT_ALGORITHMS = ("greedy", "sgl", "soma-dr-i")
EXACT_BOXES = ((19, 5, 1), (12, 5, 2))
OPTIMAL_ALGORITHMS = frozenset({"greedy", "exact"})  # separable concave: exact optimum


@dataclass
class RunCheck:
    """One solver run as the checks saw it."""

    algorithm: str
    value: float
    optimum: float
    queries: int
    stalled: bool
    problem: Optional[str] = None  # why the run failed; None if it passed


@dataclass
class Outcome:
    """Checked output of one workload repetition."""

    runs: list
    digest: str
    problems: list = field(default_factory=list)  # failures of the whole repetition


def _flag(text: str) -> bool:
    return text == "true"


class DeskWorkload:
    """bench.run_matrix over a desk grid, optionally followed by the report step."""

    def __init__(self, name: str, seed: int, grid, algorithms, with_report: bool):
        self.name = name
        self.seed = seed
        self.grid = grid
        self.algorithms = tuple(algorithms)
        self.with_report = with_report

    def prepare(self) -> None:
        """Reference optimum and instance hash per (algorithm, cell seed); untimed."""
        self.expected = {}
        for cell in bench.expand_grid(self.grid, self.seed):
            instance = bench.generate_instance(cell.n, cell.r, cell.b_pivot, cell.seed)
            ref = (bench.instance_hash(instance), reference.optimum(instance))
            for algorithm in self.algorithms:
                if algorithm in solvers.DETERMINISTIC_ALGORITHMS and cell.repetition > 0:
                    continue
                self.expected[(algorithm, str(cell.seed))] = ref

    @property
    def runs_per_rep(self) -> int:
        return len(self.expected)

    def run(self, workdir: Path):
        path = Path(workdir) / f"{self.name}.csv"
        bench.run_matrix(self.grid, self.algorithms, self.seed, path, workers=1)
        if not self.with_report:
            return path, None
        records = bench.read_records(path)
        query_rows, _ = report.table_by_n(records, "queries")
        report.table_by_n(records, "value")
        series = report.series_queries_vs_b(records, n=100, r=50)
        aggregated = sum(row.run_count + row.timeout_count for row in query_rows)
        return path, (len(records), aggregated, sorted(series))

    def outcome(self, product) -> Outcome:
        path, summary = product
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        digest = hashlib.sha256()
        runs, problems, seen = [], [], set()
        for row in rows:
            digest.update(",".join(row[col] for col in DESK_DIGEST_COLUMNS).encode() + b"\n")
            key = (row["algorithm"], row["seed"])
            run = RunCheck(algorithm=row["algorithm"], value=float(row["value"] or "nan"),
                           optimum=float("nan"), queries=int(row["queries"] or 0),
                           stalled=_flag(row["stalled"]))
            runs.append(run)
            if key not in self.expected or key in seen:
                run.problem = f"unexpected row {key}"
                continue
            seen.add(key)
            expected_hash, run.optimum = self.expected[key]
            if row["instance_hash"] != expected_hash:
                run.problem = f"instance hash {row['instance_hash']} != {expected_hash}"
            elif _flag(row["timed_out"]):
                run.problem = "timed out"
            elif not math.isfinite(run.value):
                run.problem = "no value"
            elif reference.exceeds(run.value, run.optimum):
                run.problem = f"value {run.value!r} above optimum {run.optimum!r}"
        if len(seen) != len(self.expected):
            problems.append(f"{len(self.expected) - len(seen)} expected rows missing")
        if summary is not None:
            n_records, aggregated, series = summary
            if n_records != len(rows) or aggregated != len(rows):
                problems.append(f"report saw {n_records} records and aggregated "
                                f"{aggregated}; the CSV has {len(rows)} rows")
            if series != sorted(self.algorithms):
                problems.append(f"series covers {series}, expected {sorted(self.algorithms)}")
        return Outcome(runs=runs, digest=digest.hexdigest(), problems=problems)


class SqrtLibrary:
    """solvers.solve on seeded weighted-concave-sqrt instances, then exact."""

    name = "sqrt-library"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        self.cases = []  # (instance, algorithms, solver seed)
        for n, r in SQRT_SIZES:
            # Weights are stratified over [1, 100] (one uniform draw per
            # n-th of the range, ascending as in the desk grid): soma-dr-i's
            # query count follows the weight spread, and plain uniform draws
            # move it by about 10% from seed to seed.  Caps are drawn as in
            # the desk grid, uniform in [p, 4p], at the middle pivot p = r/4
            # of the desk range [r/20, r/2].
            weights = 1 + (100 * np.arange(n) + rng.integers(0, 100, size=n)) // n
            pivot = max(1, r // 4)
            caps = rng.integers(pivot, 4 * pivot + 1, size=n)
            self.cases.append((ProblemInstance(n=n, b=caps, r=r,
                                               objective=weighted_concave_sqrt(weights)),
                               SQRT_ALGORITHMS, int(rng.integers(0, 2 ** 63))))
        for n, cap, r in EXACT_BOXES:
            weights = rng.integers(1, 101, size=n)
            self.cases.append((ProblemInstance(n=n, b=np.full(n, cap), r=r,
                                               objective=weighted_concave_sqrt(weights)),
                               ("exact",), 0))

    def prepare(self) -> None:
        self.optima = [reference.optimum(instance) for instance, _, _ in self.cases]

    @property
    def runs_per_rep(self) -> int:
        return sum(len(algorithms) for _, algorithms, _ in self.cases)

    def run(self, workdir: Path):
        results = []
        for index, (instance, algorithms, seed) in enumerate(self.cases):
            for algorithm in algorithms:
                config = solvers.AlgorithmConfig(algorithm=algorithm, seed=seed)
                try:
                    results.append((index, algorithm, solvers.solve(instance, config)))
                except Exception as exc:  # a raising run is a failed run, not a crash
                    results.append((index, algorithm, exc))
        return results

    def outcome(self, product) -> Outcome:
        digest = hashlib.sha256()
        runs = []
        for index, algorithm, sol in product:
            instance = self.cases[index][0]
            optimum = self.optima[index]
            if isinstance(sol, Exception):
                runs.append(RunCheck(algorithm, float("nan"), optimum, 0, False,
                                     problem=f"raised {sol!r}"))
                digest.update(f"{index},{algorithm},raised\n".encode())
                continue
            x = np.asarray(sol.x)
            run = RunCheck(algorithm, float(sol.value), optimum, int(sol.queries),
                           bool(sol.stalled))
            runs.append(run)
            digest.update(f"{index},{algorithm},{run.queries},{run.stalled},"
                          f"{sol.timed_out},".encode())
            digest.update(np.ascontiguousarray(x, dtype="<i8").tobytes() + b"\n")
            feasible = (x.shape == (instance.n,) and bool(np.all(x >= 0))
                        and bool(np.all(x <= instance.b)) and int(x.sum()) <= instance.r)
            if not feasible:
                run.problem = f"infeasible x (sum {int(x.sum())}, r {instance.r})"
            elif sol.timed_out:
                run.problem = "timed out"
            elif not math.isfinite(run.value):
                run.problem = "no value"
            elif reference.exceeds(run.value, optimum):
                run.problem = f"value {run.value!r} above optimum {optimum!r}"
            elif algorithm in OPTIMAL_ALGORITHMS and reference.falls_short(run.value, optimum):
                run.problem = f"value {run.value!r} below optimum {optimum!r}"
        return Outcome(runs=runs, digest=digest.hexdigest())


def build(name: str, seed: int):
    """The named workload with its inputs generated from seed."""
    if name == "ssg-desk":
        return DeskWorkload(name, seed, bench.ExperimentGrid(**SSG_GRID), ("ssg",),
                            with_report=False)
    if name == "threshold-desk":
        return DeskWorkload(name, seed, bench.ExperimentGrid(), ("sgl", "soma-dr-i"),
                            with_report=True)
    if name == "sqrt-library":
        return SqrtLibrary(seed)
    raise ValueError(f"unknown workload {name!r}")
