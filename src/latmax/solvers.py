"""Maximizers for monotone diminishing-returns objectives on a bounded box.

All solvers consume a :class:`~latmax.lattice.ProblemInstance`, count oracle
queries through a fresh :class:`~latmax.lattice.CountingOracle`, and return a
:class:`Solution` whose ``value`` is re-checked against the raw objective
outside the query counter.

The four iterative solvers share two loops.  The threshold loop
(:func:`_threshold_run`) binary-searches multi-copy steps against a decaying
threshold: :func:`sgl` samples each pass's elements, :func:`soma_dr_i` sweeps
all of them.  The unit-step loop (:func:`_unit_step_run`) adds one copy per
round: :func:`ssg` samples copy slots, :func:`greedy_lattice` scans every
element.

Randomized solvers draw from a PCG64 generator seeded with ``config.seed``;
sampling without replacement is a partial Fisher-Yates shuffle, so runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import (
    CountingOracle,
    ExhaustivenessCapError,
    ProblemInstance,
    cardinality,
    zeros,
)

SGL = "sgl"
SOMA_DR_I = "soma-dr-i"
SSG = "ssg"
GREEDY = "greedy"
EXACT = "exact"

ALGORITHMS = (SGL, SOMA_DR_I, SSG, GREEDY, EXACT)
DETERMINISTIC_ALGORITHMS = frozenset({SOMA_DR_I, GREEDY, EXACT})

# exact enumeration refuses instances with more feasible-box points than this
BRUTE_FORCE_POINT_CAP = 10 ** 6
_BRUTE_FORCE_CHUNK = 1 << 16


@dataclass(frozen=True)
class AlgorithmConfig:
    """Run parameters shared by every solver.

    epsilon=None means "use 1/(4n)" at solve time.  time_budget is a
    cooperative wall-clock cap in seconds: solvers check it at pass/round
    boundaries and return their current incumbent flagged ``timed_out``.
    """

    epsilon: Optional[float] = None
    seed: int = 0
    max_stalled_passes: int = 2
    algorithm: str = SGL
    time_budget: Optional[float] = None

    def __post_init__(self):
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.max_stalled_passes < 1:
            raise ValueError("max_stalled_passes must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.time_budget is not None and self.time_budget < 0:
            raise ValueError("time_budget must be >= 0")


@dataclass
class Solution:
    """Result of one solver run.

    ``value`` equals a fresh evaluation of ``x`` performed outside the query
    counter; ``queries`` is the total number of counted oracle evaluations;
    ``iterations`` counts outer passes (threshold solvers) or committed
    rounds (unit-step solvers) or enumerated points (exact search).
    """

    x: np.ndarray
    value: float
    queries: int
    iterations: int
    wall_time: float
    stalled: bool = False
    timed_out: bool = False


@dataclass
class PassStats:
    """One trace row per outer pass/round, for instrumented runs."""

    queries: int
    sample_size: int
    max_step_cap: int
    committed: bool
    value: float
    theta: Optional[float] = None


def resolve_epsilon(config: Optional[AlgorithmConfig], n: int) -> float:
    """config.epsilon, or the default 1/(4n) when it is unset."""
    if config is not None and config.epsilon is not None:
        return config.epsilon
    return 1.0 / (4.0 * n)


def sample_size(n: int, r: int, epsilon: float) -> int:
    """Per-pass sample size floor((n / r) * log(1 / epsilon)), unclamped."""
    return math.floor((n / r) * math.log(1.0 / epsilon))


def t_bar(n: int, s: int) -> float:
    """Sample-coverage factor used in the reported approximation bound.

    Defined for 1 <= s < n as log(1 - exp(-log(2) / n)) / log(1 - s / n);
    by convention it is 1.0 once the sample covers the ground set (s >= n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    if s >= n:
        return 1.0
    return math.log(-math.expm1(-math.log(2.0) / n)) / math.log1p(-s / n)


def guarantee_bound(n: int, r: int, epsilon: float) -> float:
    """Reported ratio 1 - 1/e - t_bar * epsilon for a subsampled run."""
    s = max(1, sample_size(n, r, epsilon))
    return 1.0 - 1.0 / math.e - t_bar(n, s) * epsilon


def _sample_without_replacement(rng: np.random.Generator, pool: np.ndarray, k: int) -> np.ndarray:
    """Partial Fisher-Yates over a copy of pool; returns k distinct entries."""
    pool = np.array(pool, dtype=np.int64, copy=True)
    m = pool.size
    if not (0 <= k <= m):
        raise ValueError(f"cannot sample {k} items from a pool of {m}")
    draws = rng.integers(0, m - np.arange(k)) if k else ()
    for i in range(k):
        j = i + int(draws[i])
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def max_feasible_step(oracle: CountingOracle, x: np.ndarray, e: int, k_max: int,
                      theta: float, fx: Optional[float] = None):
    """Largest k in [1, k_max] whose cumulative gain clears k * theta.

    Binary search over the step count, probing the acceptance predicate
    f(x + k * 1_e) - f(x) >= k * theta.  The predicate set is a prefix of
    [1, k_max] whenever the objective has diminishing returns, which makes
    the search exact; for other objectives it is a heuristic.

    Returns (k, f(x + k * 1_e)) for the accepted step, or None.  Costs at
    most ceil(log2(k_max + 1)) queries when fx is supplied (one extra query
    otherwise); the returned objective value lets the caller update its
    incumbent and apply acceptance guards without re-querying.
    """
    if k_max <= 0:
        return None
    if fx is None:
        fx = oracle.evaluate(x)
    lo, hi = 1, k_max
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        val = oracle.evaluate_stepped(x, e, mid)
        if val - fx >= mid * theta:
            best = (mid, val)
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def _finish(instance: ProblemInstance, x: np.ndarray, oracle: CountingOracle,
            iterations: int, start: float, stalled: bool = False,
            timed_out: bool = False) -> Solution:
    # value re-checked directly against the objective, outside the counter
    return Solution(
        x=x,
        value=float(instance.objective(x)),
        queries=oracle.queries,
        iterations=iterations,
        wall_time=time.perf_counter() - start,
        stalled=stalled,
        timed_out=timed_out,
    )


def _out_of_time(start: float, budget: Optional[float]) -> bool:
    return budget is not None and time.perf_counter() - start >= budget


def _prologue(instance: ProblemInstance, config: AlgorithmConfig):
    """Start the clock and a fresh oracle for one run of either loop.

    Returns (start, oracle, early) where early is the finished Solution when
    the run is out of time before it begins or has no budget, else None.
    """
    start = time.perf_counter()
    oracle = CountingOracle(instance.objective)
    early = None
    if _out_of_time(start, config.time_budget):
        early = _finish(instance, zeros(instance.n), oracle, 0, start, timed_out=True)
    elif instance.r == 0:
        early = _finish(instance, zeros(instance.n), oracle, 0, start)
    return start, oracle, early


def _threshold_pass(oracle, x, fx, card, b, r, theta, elements):
    """One acceptance sweep: binary-search a step for each listed element.

    Commits accepted steps immediately, so later elements in the same pass
    see the updated incumbent.  A step is committed only if it does not
    decrease the incumbent value (checked against the value the binary
    search already paid for, so the guard is query-free).
    """
    committed = False
    max_cap_seen = 0
    for e in elements:
        e = int(e)
        k_cap = min(int(b[e]) - int(x[e]), r - card)
        if k_cap <= 0:
            continue
        max_cap_seen = max(max_cap_seen, k_cap)
        hit = max_feasible_step(oracle, x, e, k_cap, theta, fx=fx)
        if hit is not None:
            k, val = hit
            if val >= fx:
                x[e] += k
                card += k
                fx = val
                committed = True
    return fx, card, committed, max_cap_seen


def _threshold_run(instance: ProblemInstance, config: AlgorithmConfig,
                   trace: Optional[list], sampled: bool) -> Solution:
    """The decreasing-threshold loop behind :func:`sgl` and :func:`soma_dr_i`.

    sampled=True draws each pass's elements from those below their caps and
    stops after config.max_stalled_passes zero-commit passes at the floor;
    sampled=False sweeps every element and stops after one pass at the floor.
    """
    start, oracle, early = _prologue(instance, config)
    if early is not None:
        return early
    n, b, r = instance.n, instance.b, instance.r
    if r >= cardinality(b):
        oracle.evaluate(b)
        return _finish(instance, b.copy(), oracle, 0, start)

    eps = resolve_epsilon(config, n)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x = zeros(n)
    fx = oracle.evaluate(x)
    theta = d = max(oracle.evaluate_stepped(x, e, 1) for e in range(n))
    theta_stop = (eps / r) * d
    s_raw = sample_size(n, r, eps)
    everything = np.arange(n)

    card = 0
    iterations = 0
    idle_at_floor = 0
    stalled = False
    timed_out = False
    while card < r:
        if _out_of_time(start, config.time_budget):
            timed_out = True
            break
        if sampled:
            available = np.flatnonzero(x < b)
            s = min(max(1, s_raw), available.size)
            elements = _sample_without_replacement(rng, available, s)
        else:
            elements = everything
        before = oracle.queries
        fx, card, committed, cap_seen = _threshold_pass(
            oracle, x, fx, card, b, r, theta, elements)
        iterations += 1
        if trace is not None:
            trace.append(PassStats(queries=oracle.queries - before,
                                   sample_size=elements.size, max_step_cap=cap_seen,
                                   committed=committed, value=fx, theta=theta))
        if card >= r:
            break
        if theta <= theta_stop:
            if not sampled:
                break  # the final sweep at the floor just completed
            # idle passes only accrue at the floor, where theta stays
            idle_at_floor = 0 if committed else idle_at_floor + 1
            if idle_at_floor >= config.max_stalled_passes:
                stalled = True
                break
        theta = max(theta * (1.0 - eps), theta_stop)
    return _finish(instance, x, oracle, iterations, start,
                   stalled=stalled, timed_out=timed_out)


def _unit_step_run(instance: ProblemInstance, config: AlgorithmConfig,
                   trace: Optional[list], sampled: bool) -> Solution:
    """The one-copy-per-round greedy loop behind :func:`ssg` and :func:`greedy_lattice`.

    sampled=True scores a random sample of the remaining copy slots and
    always commits the best; sampled=False scores every element below its
    cap and stops once the best gain is not positive.  Ties go to the
    smallest element id.
    """
    start, oracle, early = _prologue(instance, config)
    if early is not None:
        return early
    n, b, r = instance.n, instance.b, instance.r
    rng = np.random.Generator(np.random.PCG64(config.seed))
    copy_universe = cardinality(b)
    s_raw = math.floor((copy_universe / r) * math.log(1.0 / resolve_epsilon(config, n)))
    x = zeros(n)
    fx = oracle.evaluate(x)

    iterations = 0
    timed_out = False
    for _ in range(r):
        if _out_of_time(start, config.time_budget):
            timed_out = True
            break
        gaps = b - x
        remaining = int(gaps.sum())
        if remaining == 0:
            break
        if sampled:
            s = min(max(1, s_raw), remaining)
            slots = _sample_without_replacement(rng, np.arange(remaining), s)
            candidates = np.searchsorted(np.cumsum(gaps), slots, side="right")
        else:
            candidates = np.flatnonzero(gaps)
        before = oracle.queries
        best_e = -1
        best_val = -math.inf
        for e in candidates:  # sampled slots come unsorted, hence the explicit tie rule
            e = int(e)
            val = oracle.evaluate_stepped(x, e, 1)
            if val > best_val or (val == best_val and e < best_e):
                best_val = val
                best_e = e
        if not sampled and best_val - fx <= 0:
            break
        x[best_e] += 1
        fx = best_val
        iterations += 1
        if trace is not None:
            trace.append(PassStats(queries=oracle.queries - before,
                                   sample_size=candidates.size, max_step_cap=1,
                                   committed=True, value=fx))
    return _finish(instance, x, oracle, iterations, start, timed_out=timed_out)


def sgl(instance: ProblemInstance, config: AlgorithmConfig,
        trace: Optional[list] = None) -> Solution:
    """Randomized subsampled decreasing-threshold solver.

    Each pass draws floor((n / r) * log(1 / epsilon)) distinct elements
    (clamped to [1, #available]) uniformly from those below their caps, and
    binary-searches the largest multi-copy step whose average per-copy gain
    clears the current threshold.  The threshold decays by (1 - epsilon)
    per pass down to a floor of (epsilon / r) * d, where d is the best
    singleton value.  If the budget r meets or exceeds the total
    availability, the box maximum b is returned after a single query.

    A run that keeps completing zero-commit passes at the threshold floor
    stops after config.max_stalled_passes of them and returns its incumbent
    flagged ``stalled``.
    """
    return _threshold_run(instance, config, trace, sampled=True)


def soma_dr_i(instance: ProblemInstance, config: Optional[AlgorithmConfig] = None,
              trace: Optional[list] = None) -> Solution:
    """Deterministic decreasing-threshold solver sweeping every element.

    Identical acceptance rule and threshold schedule to :func:`sgl`, but each
    pass visits the whole ground set in element order, and the run ends once
    a full pass at the threshold floor completes (or the budget fills).
    """
    config = config or AlgorithmConfig(algorithm=SOMA_DR_I)
    return _threshold_run(instance, config, trace, sampled=False)


def ssg(instance: ProblemInstance, config: AlgorithmConfig,
        trace: Optional[list] = None) -> Solution:
    """Stochastic greedy on the copy-expanded ground set.

    Conceptually each element e is split into b_e identical copies and the
    classical set-domain stochastic greedy runs for r rounds over the copy
    universe V' (|V'| = |b|_1).  Copies are never materialized: remaining
    copy slots are indexed in (element id, copy index) order and sampled by
    slot position.  Every sampled slot costs one marginal-gain query, copies
    of the same element included, which is what the copy reduction pays.
    """
    return _unit_step_run(instance, config, trace, sampled=True)


def greedy_lattice(instance: ProblemInstance, config: Optional[AlgorithmConfig] = None,
                   trace: Optional[list] = None) -> Solution:
    """Deterministic unit-step greedy baseline.

    Up to r rounds; each round evaluates the single-copy gain of every
    element below its cap and adds one copy of the best (ties go to the
    smallest element id).  Stops early when no remaining step has positive
    gain or every cap is met.
    """
    config = config or AlgorithmConfig(algorithm=GREEDY)
    return _unit_step_run(instance, config, trace, sampled=False)


def exact_bruteforce(instance: ProblemInstance,
                     time_budget: Optional[float] = None) -> Solution:
    """Exhaustive reference solver for small instances.

    Enumerates every x <= b with |x|_1 <= r in lexicographic order and keeps
    the first maximizer, so ties resolve to the lexicographically smallest
    point.  Refuses instances whose enumeration box prod(min(b_e, r) + 1)
    exceeds BRUTE_FORCE_POINT_CAP.
    """
    n, b, r = instance.n, instance.b, instance.r
    start = time.perf_counter()
    caps = np.minimum(b, r) + 1
    total = 1
    for c in caps:
        total *= int(c)
    if total > BRUTE_FORCE_POINT_CAP:
        raise ExhaustivenessCapError(
            f"enumeration box holds {total} points, cap is {BRUTE_FORCE_POINT_CAP}")
    oracle = CountingOracle(instance.objective)
    grid = np.indices(tuple(int(c) for c in caps)).reshape(n, -1).T
    feasible = np.ascontiguousarray(grid[grid.sum(axis=1) <= r], dtype=np.int64)

    best_val = -math.inf
    best_x = None
    seen = 0
    timed_out = False
    for lo in range(0, len(feasible), _BRUTE_FORCE_CHUNK):
        if _out_of_time(start, time_budget):
            timed_out = True
            break
        chunk = feasible[lo:lo + _BRUTE_FORCE_CHUNK]
        vals = oracle.evaluate_batch(chunk)
        i = int(np.argmax(vals))
        if float(vals[i]) > best_val:
            best_val = float(vals[i])
            best_x = chunk[i]
        seen += len(chunk)
    if best_x is None:  # timed out before the first chunk
        best_x = zeros(n)
    return _finish(instance, best_x.copy(), oracle, seen, start, timed_out=timed_out)


_SOLVERS = {
    SGL: sgl,
    SOMA_DR_I: soma_dr_i,
    SSG: ssg,
    GREEDY: greedy_lattice,
    EXACT: lambda instance, config: exact_bruteforce(instance, config.time_budget),
}


def solve(instance: ProblemInstance, config: AlgorithmConfig) -> Solution:
    """Dispatch on config.algorithm."""
    run = _SOLVERS.get(config.algorithm)
    if run is None:
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    return run(instance, config)
