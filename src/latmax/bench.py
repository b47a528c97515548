"""Seeded benchmark harness: instance generation, grid expansion, run matrix.

Every run is reproducible from a master seed.  Per-cell seeds come from a
SplitMix64 mix of (master_seed, cell index), and instances are generated from
the cell seed alone.  run_matrix runs serially, cell by cell: it generates each
cell's instance once and runs every algorithm scheduled on the cell on it, so
all of them see identical bytes (certified by the recorded instance hash).
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from .lattice import ProblemInstance, _is_integer, weighted_linear
from .solvers import (
    DETERMINISTIC_ALGORITHMS,
    AlgorithmConfig,
    Solution,
    guarantee_bound,
    resolve_epsilon,
    solve,
)

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1

@dataclass(frozen=True)
class ExperimentGrid:
    """Benchmark grid; defaults are the desk-scale configuration.

    r values are floor(fraction * n) with a floor of 1.  For each r, b_pivot
    takes b_pivots equidistant integers spanning
    [max(1, r // b_low_divisor), r // b_high_divisor] (duplicates dropped).
    epsilon_rule is either the literal string "1/(4n)" or a fixed float
    rendered as text.  timeout_s caps each solver run's wall clock.  A value
    out of range (n, b_pivots, repetitions or a divisor not an integer >= 1,
    an r fraction not positive and finite or a bool, an epsilon or timeout_s
    that AlgorithmConfig refuses) raises ValueError here rather than in the
    first run.
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
        for name in ("n_values", "r_fractions"):  # tuples, as write_grid_file writes them
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.n_values or not self.r_fractions:
            raise ValueError("grid needs at least one n and one r fraction")
        if not all(_is_integer(n) and n >= 1 for n in self.n_values):
            raise ValueError(f"every n must be an integer >= 1: {self.n_values}")
        # a bool is a number, but a grid file cannot read it back
        if not all(0 < f < math.inf and not isinstance(f, (bool, np.bool_))
                   for f in self.r_fractions):
            raise ValueError(f"r fractions must be positive, finite, no bools: {self.r_fractions}")
        counts = (self.b_pivots, self.repetitions, self.b_low_divisor, self.b_high_divisor)
        if not all(_is_integer(v) for v in counts):
            raise ValueError(f"b_pivots, repetitions and divisors must be integers: {counts}")
        if self.b_pivots < 1 or self.repetitions < 1:
            raise ValueError("b_pivots and repetitions must be >= 1")
        if not 1 <= self.b_high_divisor <= self.b_low_divisor:
            raise ValueError("need 1 <= b_high_divisor <= b_low_divisor")
        if self.timeout_s is None:  # no budget is a run's default, but no grid file's
            raise ValueError("timeout_s must be a number, got None")
        AlgorithmConfig(epsilon=self.epsilon, time_budget=self.timeout_s)  # the runs' rules

    @property
    def epsilon(self) -> Optional[float]:
        """Every run's epsilon: None for "1/(4n)", which resolve_epsilon computes."""
        return None if self.epsilon_rule == "1/(4n)" else float(self.epsilon_rule)


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
    """SplitMix64 finalizer over (master_seed, index); platform-stable, in
    Python ints, so a numpy integer seed does not overflow."""
    z = (int(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
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
    cap; every removal is logged.  Raises if nothing survives, or if
    master_seed is not an integer in [0, 2**64), as a run seed must be: the
    mix keeps 64 bits, so -1 or 2**64 + 5 would alias another master seed.
    """
    if not (_is_integer(master_seed) and 0 <= master_seed < 2 ** 64):
        raise ValueError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")
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


# CSV columns, one per RunRecord field: (name, cell type, whether it may be empty)
_COLUMNS = [(name, (get_args(hint) or (hint,))[0], type(None) in get_args(hint))
            for name, hint in get_type_hints(RunRecord).items()]
CSV_HEADER = [name for name, _, _ in _COLUMNS]


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"flag cell must be 'true' or 'false', got {text!r}")
    return text == "true"


_PARSE = {bool: _parse_flag, int: int, float: float, str: str}


def record_to_row(rec: RunRecord) -> list:
    return ["" if (v := getattr(rec, name)) is None else str(v).lower() if kind is bool
            else str(v) for name, kind, _ in _COLUMNS]


def row_to_record(row: Sequence[str]) -> RunRecord:
    if len(row) != len(_COLUMNS):
        raise ValueError(f"expected {len(_COLUMNS)} columns, got {len(row)}")
    if not all(text or optional for text, (_, _, optional) in zip(row, _COLUMNS)):
        raise ValueError(f"empty cell in a column that is not Optional: {row}")
    return RunRecord(*[_PARSE[kind](text) if text else None
                       for text, (_, kind, _) in zip(row, _COLUMNS)])


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
        guarantee_bound=guarantee_bound(config.algorithm, instance.n, instance.r,
                                        resolve_epsilon(config, instance.n)),
    )


def run_matrix(grid: ExperimentGrid, algorithms: Sequence[str], master_seed: int,
               out_path, workers: int = 1) -> list:
    """Run every algorithm over the expanded grid, streaming rows to CSV.

    Cells run in grid order, and each cell's instance is generated once and
    given to the algorithms in the order listed.  Deterministic algorithms run
    once per (n, r, b_pivot) cell group (repetition 0 only); randomized ones
    run every repetition.  Each row is written and flushed as its run ends, so
    a crash leaves a readable partial CSV.  The CSV's parent directory is made
    only once the request has passed its checks, so a rejected request leaves
    nothing behind.  Returns the RunRecords written.
    Runs are serial: workers stays for callers that pass it, and must be 1.
    """
    if workers != 1:
        raise ValueError(f"runs are serial, so workers must be 1, got {workers}")
    for i, name in enumerate(algorithms):
        AlgorithmConfig(algorithm=name)  # refuses an unknown name
        if name in algorithms[:i]:
            raise ValueError(f"algorithm {name!r} is listed twice")
    if not algorithms:
        raise ValueError("no algorithms requested")
    cells = expand_grid(grid, master_seed)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)

    records = []
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        fh.flush()
        for cell in cells:
            names = [name for name in algorithms
                     if not (name in DETERMINISTIC_ALGORITHMS and cell.repetition > 0)]
            if not names:
                continue
            instance = generate_instance(cell.n, cell.r, cell.b_pivot, cell.seed)
            for name in names:
                config = AlgorithmConfig(epsilon=grid.epsilon, seed=cell.seed,
                                         algorithm=name, time_budget=grid.timeout_s)
                records.append(make_record(instance, cell.b_pivot, config,
                                           solve(instance, config)))
                writer.writerow(record_to_row(records[-1]))
                fh.flush()
    return records


# ---------------------------------------------------------------------------
# grid files: flat key=value text


def write_grid_file(grid: ExperimentGrid, path) -> None:
    """One `key = value` line per ExperimentGrid field; tuples comma-joined."""
    with open(path, "w") as fh:
        fh.write("# benchmark grid\n")
        for f in fields(ExperimentGrid):
            value = getattr(grid, f.name)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            fh.write(f"{f.name} = {text}\n")


def _parse_value(default, text: str):
    """text as the type of default; a tuple's items are comma-separated."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(v) for v in text.split(","))
    return type(default)(text)


def parse_grid_file(path) -> ExperimentGrid:
    """Parse a flat key=value grid file; unknown or repeated keys and bad values are errors.

    Keys and value types come from the ExperimentGrid fields and their
    defaults; missing keys keep the default.
    """
    defaults = {f.name: f.default for f in fields(ExperimentGrid)}
    updates, set_on = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown grid key {key!r}")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                updates[key] = _parse_value(defaults[key], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return ExperimentGrid(**updates)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
