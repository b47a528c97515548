"""Acceptance criteria 1, 3 and 8 as self-checks against independent references, run
by `latmax bench check` and the acceptance suite.  Each returns (ok, detail)."""

from __future__ import annotations

import math
import time

import numpy as np

from .lattice import (CountingOracle, ProblemInstance, check_dr_submodular,
                      check_lattice_submodular, check_monotone, coordinate_product, unit,
                      weighted_concave_sqrt, weighted_linear)
from .solvers import (AlgorithmConfig, exact_bruteforce, greedy_lattice, max_feasible_step,
                      soma_dr_i)


def random_tiny_instance(rng, max_n=5, max_b=3, max_r=6, kinds=("weighted-linear",)):
    """Small random instance for oracle-equivalence suites."""
    n = int(rng.integers(1, max_n + 1))
    w = rng.integers(1, 101, size=n)
    kind = kinds[int(rng.integers(len(kinds)))]
    objective = weighted_linear(w) if kind == "weighted-linear" else weighted_concave_sqrt(w)
    return ProblemInstance(n=n, b=rng.integers(1, max_b + 1, size=n),
                           r=int(rng.integers(1, max_r + 1)), objective=objective)


def random_step_tuple(rng):
    """Random (objective, x, e, k_max, theta) with a DR objective."""
    n = int(rng.integers(1, 6))
    w = rng.integers(1, 101, size=n)
    objective = weighted_linear(w) if rng.integers(2) else weighted_concave_sqrt(w)
    x = rng.integers(0, 5, size=n).astype(np.int64)
    e = int(rng.integers(n))
    k_max = int(rng.integers(0, 13))
    marginal = float(objective(x + unit(n, e))) - float(objective(x))
    theta = max(1e-6, marginal * float(rng.uniform(0.3, 1.7)))
    return objective, x, e, k_max, theta


def scan_step(objective, x, e, k_max, theta):
    """Reference step search: the largest k <= k_max with f(k*1_e|x) >= k*theta."""
    fx = float(objective(x))
    best = None
    for k in range(1, k_max + 1):
        if float(objective(x + k * unit(x.size, e))) - fx >= k * theta:
            best = k
    return best


def deterministic_solvers_match_bruteforce():
    """soma-dr-i and greedy stay feasible and equal exact on modular instances."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20240817))
    config = AlgorithmConfig(epsilon=0.01)  # threshold floor below every weight
    checked = mismatches = infeasible = 0
    for kind, count in (("weighted-linear", 100), ("weighted-concave-sqrt", 30)):
        for _ in range(count):
            instance = random_tiny_instance(rng, kinds=(kind,))
            opt = exact_bruteforce(instance).value
            for solver in (soma_dr_i, greedy_lattice):
                sol = solver(instance, config)
                infeasible += not instance.is_feasible(sol.x)
                if kind == "weighted-linear":
                    checked += 1
                    mismatches += sol.value != opt
    elapsed = time.perf_counter() - t0
    return (checked == 200 and mismatches == infeasible == 0 and elapsed < 60.0,
            f"{checked} modular comparisons, {mismatches} mismatches, "
            f"{infeasible} infeasible, {elapsed:.1f}s")


def step_search_matches_scan():
    """max_feasible_step equals scan_step within ceil(log2(k_max + 1)) probes."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(13579))
    disagreements = over_budget = 0
    for _ in range(1000):
        objective, x, e, k_max, theta = random_step_tuple(rng)
        expected = scan_step(objective, x, e, k_max, theta)
        oracle = CountingOracle(objective)
        fx = oracle.follow(x)
        hit = max_feasible_step(oracle, e, k_max, theta, fx=fx)
        disagreements += (None if hit is None else hit[0]) != expected
        over_budget += oracle.queries - 1 > math.ceil(math.log2(k_max + 1))
    elapsed = time.perf_counter() - t0
    return (disagreements == over_budget == 0 and elapsed < 30.0,
            f"1000 calls, {disagreements} disagreements, "
            f"{over_budget} probe overruns, {elapsed:.1f}s")


def structure_checkers():
    """The checkers certify both built-ins on three fixed boxes and reject the
    planted coordinate product with genuine witnesses."""
    t0 = time.perf_counter()
    weights = [3, 17, 41, 76, 100]
    certified = sum(all(check(make(weights[:len(box)]), box) == (True, None)
                        for check in (check_monotone, check_dr_submodular,
                                      check_lattice_submodular))
                    for make in (weighted_linear, weighted_concave_sqrt)
                    for box in (np.array([9, 9]), np.array([4, 4, 4, 4]), np.full(5, 9)))
    bad = coordinate_product(2)
    witnessed = 0
    dr_ok, witness = check_dr_submodular(bad, np.array([2, 2]))
    if not dr_ok:
        x, y, e = witness
        witnessed += bad(x + unit(2, int(e))) - bad(x) < bad(y + unit(2, int(e))) - bad(y)
    lattice_ok, witness = check_lattice_submodular(bad, np.array([1, 1]))
    if not lattice_ok:
        u, v = witness
        witnessed += bad(u) + bad(v) < bad(np.minimum(u, v)) + bad(np.maximum(u, v))
    elapsed = time.perf_counter() - t0
    return (certified == 6 and witnessed == 2 and elapsed < 30.0,
            f"{certified} objective/box certifications, {witnessed} of 2 rejections "
            f"witnessed, {elapsed:.1f}s")
