"""Seeded benchmark harness: instance generation, grid expansion, run matrix.

Every run is reproducible from a master seed.  Per-cell seeds come from a
SplitMix64 mix of (master_seed, cell index), instances are generated from the
cell seed alone, and all algorithms scheduled on a cell consume an instance
with identical bytes (verified by the recorded instance hash).
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import struct
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .lattice import ProblemInstance, weighted_linear
from .solvers import (
    ALGORITHMS,
    DETERMINISTIC_ALGORITHMS,
    AlgorithmConfig,
    Solution,
    guarantee_bound,
    resolve_epsilon,
    solve,
)

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1

CSV_HEADER = [
    "algorithm", "n", "r", "b_pivot", "seed", "instance_hash",
    "value", "queries", "wall_time_s", "stalled", "timed_out", "guarantee_bound",
]


@dataclass(frozen=True)
class ExperimentGrid:
    """Benchmark grid; defaults are the desk-scale configuration.

    r values are floor(fraction * n) with a floor of 1.  For each r, b_pivot
    takes b_pivots equidistant integers spanning
    [max(1, r // b_low_divisor), r // b_high_divisor] (duplicates dropped).
    epsilon_rule is either the literal string "1/(4n)" or a fixed float
    rendered as text.  timeout_s caps each solver run's wall clock.
    """

    n_values: tuple = (25, 50, 100, 200)
    r_fractions: tuple = (0.25, 0.5, 1.0, 2.0)
    b_pivots: int = 6
    b_low_divisor: int = 20
    b_high_divisor: int = 2
    repetitions: int = 5
    epsilon_rule: str = "1/(4n)"
    timeout_s: float = 600.0

    def __post_init__(self):
        if not self.n_values or not self.r_fractions:
            raise ValueError("grid needs at least one n and one r fraction")
        if self.b_pivots < 1 or self.repetitions < 1:
            raise ValueError("b_pivots and repetitions must be >= 1")
        if self.b_low_divisor < self.b_high_divisor:
            raise ValueError("b_low_divisor must be >= b_high_divisor")
        if self.timeout_s < 0:
            raise ValueError("timeout_s must be >= 0")
        self.epsilon_for(max(self.n_values))  # validate the rule early


    def epsilon_for(self, n: int) -> float:
        if self.epsilon_rule == "1/(4n)":
            return 1.0 / (4.0 * n)
        eps = float(self.epsilon_rule)
        if not (0.0 < eps < 1.0):
            raise ValueError("fixed epsilon must lie in (0, 1)")
        return eps


def full_scale_grid() -> ExperimentGrid:
    """The large configuration: n up to 750 and a 6.5 hour per-run timeout."""
    return ExperimentGrid(n_values=(100, 200, 500, 750), timeout_s=23400.0)


@dataclass(frozen=True)
class GridCell:
    index: int
    n: int
    r: int
    b_pivot: int
    repetition: int
    seed: int


def mix_seed(master_seed: int, index: int) -> int:
    """SplitMix64 finalizer over (master_seed, index); platform-stable."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def pivot_values(r: int, count: int, low_divisor: int, high_divisor: int) -> list:
    """count equidistant integer pivots spanning [max(1, r/low), r/high]."""
    lo = max(1, r // low_divisor)
    hi = max(lo, r // high_divisor)
    vals = np.rint(np.linspace(lo, hi, count)).astype(np.int64)
    return sorted({int(v) for v in vals})


def generate_instance(n: int, r: int, b_pivot: int, seed: int) -> ProblemInstance:
    """Weighted-linear instance drawn from the cell seed.

    Draw order is fixed: weights first (uniform integers in [1, 100], sorted
    ascending), then availability caps (uniform integers in
    [b_pivot, 4 * b_pivot]).
    """
    if n < 1 or r < 0 or b_pivot < 1:
        raise ValueError("need n >= 1, r >= 0, b_pivot >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.sort(rng.integers(1, 101, size=n))
    b = rng.integers(b_pivot, 4 * b_pivot + 1, size=n)
    return ProblemInstance(n=n, b=b, r=r, objective=weighted_linear(weights))


def instance_hash(instance: ProblemInstance) -> str:
    """Stable 64-bit hex digest of (n, r, weights, b)."""
    h = hashlib.sha256()
    h.update(struct.pack("<qq", instance.n, instance.r))
    h.update(instance.objective.kind.encode())
    if instance.objective.weights is not None:
        h.update(np.ascontiguousarray(instance.objective.weights, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(instance.b, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def expand_grid(grid: ExperimentGrid, master_seed: int) -> list:
    """All (n, r, b_pivot, repetition) cells with derived seeds.

    A (n, r, b_pivot) combination is dropped when r > 4 * b_pivot and
    r >= n * 4 * b_pivot, taking 4 * b_pivot as the worst-case availability
    cap; every removal is logged.  Raises if nothing survives.
    """
    cells = []
    index = 0
    for n in grid.n_values:
        for fraction in grid.r_fractions:
            r = max(1, math.floor(fraction * n))
            for pivot in pivot_values(r, grid.b_pivots,
                                      grid.b_low_divisor, grid.b_high_divisor):
                worst_cap = 4 * pivot
                if r > worst_cap and r >= n * worst_cap:
                    log.info("discarding cell n=%d r=%d b_pivot=%d "
                             "(budget exceeds worst-case availability)", n, r, pivot)
                    continue
                for repetition in range(grid.repetitions):
                    cells.append(GridCell(index=index, n=n, r=r, b_pivot=pivot,
                                          repetition=repetition,
                                          seed=mix_seed(master_seed, index)))
                    index += 1
    if not cells:
        raise ValueError("grid expansion is empty after the discard rule")
    return cells


@dataclass
class RunRecord:
    """One benchmark CSV row."""

    algorithm: str
    n: int
    r: int
    b_pivot: int
    seed: int
    instance_hash: str
    value: Optional[float]
    queries: Optional[int]
    wall_time_s: Optional[float]
    stalled: bool
    timed_out: bool
    guarantee_bound: float


def record_to_row(rec: RunRecord) -> list:
    def opt(v, fmt=repr):
        return "" if v is None else fmt(v)

    return [
        rec.algorithm, str(rec.n), str(rec.r), str(rec.b_pivot), str(rec.seed),
        rec.instance_hash, opt(rec.value), opt(rec.queries, str),
        opt(rec.wall_time_s), str(rec.stalled).lower(), str(rec.timed_out).lower(),
        repr(rec.guarantee_bound),
    ]


def row_to_record(row: Sequence[str]) -> RunRecord:
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} columns, got {len(row)}")
    return RunRecord(
        algorithm=row[0], n=int(row[1]), r=int(row[2]), b_pivot=int(row[3]),
        seed=int(row[4]), instance_hash=row[5],
        value=float(row[6]) if row[6] else None,
        queries=int(row[7]) if row[7] else None,
        wall_time_s=float(row[8]) if row[8] else None,
        stalled=row[9] == "true", timed_out=row[10] == "true",
        guarantee_bound=float(row[11]),
    )


def read_records(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        return [row_to_record(row) for row in reader]


def make_record(instance: ProblemInstance, b_pivot: int, config: AlgorithmConfig,
                sol: Solution) -> RunRecord:
    """The CSV row for one solver run of config on instance."""
    # a timed-out run can only have had a budget; its row reports that budget
    return RunRecord(
        algorithm=config.algorithm, n=instance.n, r=instance.r, b_pivot=b_pivot,
        seed=config.seed, instance_hash=instance_hash(instance),
        value=sol.value, queries=sol.queries,
        wall_time_s=config.time_budget if sol.timed_out else sol.wall_time,
        stalled=sol.stalled, timed_out=sol.timed_out,
        guarantee_bound=guarantee_bound(instance.n, instance.r,
                                        resolve_epsilon(config, instance.n)),
    )


def _execute_task(grid: ExperimentGrid, cell: GridCell, algorithm: str) -> RunRecord:
    instance = generate_instance(cell.n, cell.r, cell.b_pivot, cell.seed)
    config = AlgorithmConfig(epsilon=grid.epsilon_for(cell.n), seed=cell.seed,
                             algorithm=algorithm, time_budget=grid.timeout_s)
    return make_record(instance, cell.b_pivot, config, solve(instance, config))


def run_matrix(grid: ExperimentGrid, algorithms: Sequence[str], master_seed: int,
               out_path, workers: int = 1) -> list:
    """Run every algorithm over the expanded grid, streaming rows to CSV.

    Deterministic algorithms run once per (n, r, b_pivot) cell group
    (repetition 0 only); randomized ones run every repetition.  Rows are
    written incrementally in task order and flushed after each run, so a
    crash leaves a readable partial CSV.  Returns the per-(algorithm, n)
    aggregate rows for the completed matrix.
    """
    from .report import aggregate_by_n  # local import keeps report decoupled

    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    if not algorithms:
        raise ValueError("no algorithms requested")
    cells = expand_grid(grid, master_seed)
    tasks = [(cell, name)
             for cell in cells
             for name in algorithms
             if not (name in DETERMINISTIC_ALGORITHMS and cell.repetition > 0)]

    records = []
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        fh.flush()

        def emit(rec: RunRecord):
            records.append(rec)
            writer.writerow(record_to_row(rec))
            fh.flush()

        if workers <= 1:
            for cell, name in tasks:
                emit(_execute_task(grid, cell, name))
        else:
            _run_parallel(grid, tasks, workers, emit)
    return aggregate_by_n(records)


def _run_parallel(grid, tasks, workers, emit):
    # rows are buffered and flushed in task order so reruns diff cleanly
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {pool.submit(_execute_task, grid, cell, name): i
                   for i, (cell, name) in enumerate(tasks)}
        done_buf = {}
        next_out = 0
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                done_buf[pending.pop(fut)] = fut.result()
            while next_out in done_buf:
                emit(done_buf.pop(next_out))
                next_out += 1


# ---------------------------------------------------------------------------
# grid files: flat key=value text


def write_grid_file(grid: ExperimentGrid, path) -> None:
    with open(path, "w") as fh:
        fh.write("# benchmark grid\n")
        fh.write(f"n_values = {','.join(str(v) for v in grid.n_values)}\n")
        fh.write(f"r_fractions = {','.join(repr(v) for v in grid.r_fractions)}\n")
        for key in ("b_pivots", "b_low_divisor", "b_high_divisor", "repetitions"):
            fh.write(f"{key} = {getattr(grid, key)}\n")
        fh.write(f"epsilon_rule = {grid.epsilon_rule}\n")
        fh.write(f"timeout_s = {repr(grid.timeout_s)}\n")


def parse_grid_file(path) -> ExperimentGrid:
    """Parse a flat key=value grid file; unknown keys are an error."""
    known = {f.name for f in fields(ExperimentGrid)}
    updates = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown grid key {key!r}")
            updates[key] = value
    grid = ExperimentGrid()
    parsed = {}
    for key, value in updates.items():
        if key == "n_values":
            parsed[key] = tuple(int(v) for v in value.split(","))
        elif key == "r_fractions":
            parsed[key] = tuple(float(v) for v in value.split(","))
        elif key in ("b_pivots", "b_low_divisor", "b_high_divisor", "repetitions"):
            parsed[key] = int(value)
        elif key == "timeout_s":
            parsed[key] = float(value)
        else:
            parsed[key] = value
    return replace(grid, **parsed)
