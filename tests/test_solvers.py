"""Solver unit tests: binary-search step selection, the five maximizers,
and the reported approximation bound."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latmax import (
    AlgorithmConfig,
    CountingOracle,
    ExhaustivenessCapError,
    ProblemInstance,
    as_point,
    cardinality,
    custom_objective,
    exact_bruteforce,
    greedy_lattice,
    guarantee_bound,
    leq,
    max_feasible_step,
    sample_size,
    sgl,
    solve,
    soma_dr_i,
    ssg,
    t_bar,
    weighted_concave_sqrt,
    weighted_linear,
)
from latmax.solvers import _sample_without_replacement

from conftest import random_tiny_instance


def probes_of(objective, x, e, k_max, theta):
    """Run max_feasible_step on a fresh counter with fx precomputed."""
    oracle = CountingOracle(objective)
    fx = float(objective(x))
    hit = max_feasible_step(oracle, x, e, k_max, theta, fx=fx)
    return hit, oracle.queries


def scan_step(objective, x, e, k_max, theta):
    # reference: exhaustive scan for the largest k with f(k*1_e|x) >= k*theta
    fx = float(objective(x))
    best = None
    for k in range(1, k_max + 1):
        y = x.copy()
        y[e] += k
        if float(objective(y)) - fx >= k * theta:
            best = k
    return best


def tiny_tuple(rng):
    """Random (objective, x, e, k_max, theta) with a DR objective."""
    n = int(rng.integers(1, 6))
    w = rng.integers(1, 101, size=n)
    if rng.integers(2):
        objective = weighted_linear(w)
    else:
        objective = weighted_concave_sqrt(w)
    x = rng.integers(0, 5, size=n).astype(np.int64)
    e = int(rng.integers(n))
    k_max = int(rng.integers(0, 13))
    y = x.copy()
    y[e] += 1
    marginal = float(objective(y)) - float(objective(x))
    theta = max(1e-6, marginal * float(rng.uniform(0.3, 1.7)))
    return objective, x, e, k_max, theta


class TestMaxFeasibleStep:
    def test_modular_accepts_full_cap(self):
        obj = weighted_linear([10])
        hit, _ = probes_of(obj, as_point([0]), 0, 5, 10.0)
        assert hit is not None
        k, val = hit
        assert k == 5
        assert val == 50.0

    def test_modular_rejects_above_weight(self):
        obj = weighted_linear([10])
        hit, _ = probes_of(obj, as_point([0]), 0, 5, 10.5)
        assert hit is None

    def test_concave_scan_fixed_example(self):
        # 6*sqrt(k) >= 2k holds up to k = 9, boundary tight in floats
        obj = weighted_concave_sqrt([6])
        x = as_point([0])
        assert scan_step(obj, x, 0, 9, 2.0) == 9
        hit, probes = probes_of(obj, x, 0, 9, 2.0)
        assert hit is not None and hit[0] == 9
        assert probes <= math.ceil(math.log2(10))

    def test_zero_cap_is_none_and_free(self):
        obj = weighted_linear([3, 4])
        hit, probes = probes_of(obj, as_point([1, 1]), 0, 0, 1.0)
        assert hit is None
        assert probes == 0

    def test_returned_value_is_stepped_evaluation(self):
        obj = weighted_concave_sqrt([7, 2])
        x = as_point([2, 0])
        hit, _ = probes_of(obj, x, 1, 6, 0.5)
        assert hit is not None
        k, val = hit
        stepped = x.copy()
        stepped[1] += k
        assert val == float(obj(stepped))
        assert list(x) == [2, 0]  # probe evaluations restore x

    def test_agrees_with_scan_on_random_tuples(self, rng):
        for _ in range(300):
            obj, x, e, k_max, theta = tiny_tuple(rng)
            expected = scan_step(obj, x, e, k_max, theta)
            hit, probes = probes_of(obj, x, e, k_max, theta)
            got = None if hit is None else hit[0]
            assert got == expected
            assert probes <= math.ceil(math.log2(k_max + 1))

    def test_charges_one_extra_query_without_cached_fx(self):
        obj = weighted_linear([9])
        oracle = CountingOracle(obj)
        max_feasible_step(oracle, as_point([0]), 0, 4, 9.0)
        baseline = oracle.queries
        oracle2 = CountingOracle(obj)
        max_feasible_step(oracle2, as_point([0]), 0, 4, 9.0, fx=0.0)
        assert baseline == oracle2.queries + 1


class TestGuaranteeReporting:
    def test_t_bar_fixed_values(self):
        assert t_bar(100, 50) == pytest.approx(7.177619674607526, abs=1e-12)
        assert t_bar(100, 50) == pytest.approx(7.17, abs=0.01)
        direct = math.log(1.0 - math.exp(-math.log(2.0) / 2.0)) / math.log(0.5)
        assert t_bar(2, 1) == pytest.approx(direct, rel=1e-12)

    def test_t_bar_full_coverage_convention(self):
        assert t_bar(5, 5) == 1.0
        assert t_bar(5, 12) == 1.0

    def test_t_bar_shrinks_as_sample_approaches_n(self):
        # denominator grows without bound, so the ratio falls toward 0+
        vals = [t_bar(100, s) for s in (50, 80, 95, 99)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_t_bar_domain_errors(self):
        with pytest.raises(ValueError):
            t_bar(0, 1)
        with pytest.raises(ValueError):
            t_bar(10, 0)

    def test_sample_size_floor(self):
        assert sample_size(100, 50, 0.01) == math.floor(2.0 * math.log(100.0))
        assert sample_size(100, 200, 1.0 / 400.0) == 2
        assert sample_size(4, 8, 0.5) == 0  # clamping is the caller's job

    def test_guarantee_bound_composes_t_bar(self):
        eps = 1.0 / 400.0
        s = max(1, sample_size(100, 50, eps))
        expected = 1.0 - 1.0 / math.e - t_bar(100, s) * eps
        assert guarantee_bound(100, 50, eps) == pytest.approx(expected, rel=1e-15)

    @given(st.integers(2, 400), st.integers(1, 400))
    def test_t_bar_positive_on_domain(self, n, s):
        assert t_bar(n, s) > 0.0


class TestConfigAndThresholdState:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AlgorithmConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            AlgorithmConfig(seed=-1)
        with pytest.raises(ValueError):
            AlgorithmConfig(seed=2 ** 64)
        with pytest.raises(ValueError):
            AlgorithmConfig(max_stalled_passes=0)
        with pytest.raises(ValueError):
            AlgorithmConfig(algorithm="simulated-annealing")
        with pytest.raises(ValueError):
            AlgorithmConfig(time_budget=-1.0)

    def test_threshold_schedule(self):
        # weight 1 never clears the floor (0.5 / 4) * 40 = 5 and element 0
        # holds only 2 copies, so the budget never fills and both runs
        # reach the floor
        instance = ProblemInstance(n=2, b=as_point([2, 5]), r=4,
                                   objective=weighted_linear([40, 1]))
        for run in (sgl, soma_dr_i):
            trace = []
            run(instance, AlgorithmConfig(epsilon=0.5, seed=1), trace=trace)
            seen = [stats.theta for stats in trace]
            assert seen[:4] == [40.0, 20.0, 10.0, 5.0]
            assert all(a >= b for a, b in zip(seen, seen[1:]))
            assert seen[-1] == pytest.approx((0.5 / 4) * 40.0)


LINEAR_123 = dict(n=3, b=as_point([2, 2, 2]), r=3,
                  objective=weighted_linear([1, 2, 3]))


class TestSgl:
    def test_reaches_optimum_on_small_modular_instance(self):
        instance = ProblemInstance(**LINEAR_123)
        for seed in range(20):
            sol = sgl(instance, AlgorithmConfig(seed=seed))
            assert sol.value == 8.0
            assert instance.is_feasible(sol.x)
            assert not sol.stalled

    def test_single_element_run_is_fully_determined(self):
        instance = ProblemInstance(n=1, b=as_point([5]), r=3,
                                   objective=weighted_linear([4]))
        sol = sgl(instance, AlgorithmConfig(seed=11))
        assert list(sol.x) == [3]
        assert sol.value == 12.0
        assert sol.queries == 4  # f(0), the singleton, two search probes
        assert sol.iterations == 1

    def test_unconstrained_shortcut_returns_box_maximum(self):
        instance = ProblemInstance(n=3, b=as_point([2, 2, 2]), r=6,
                                   objective=weighted_linear([1, 2, 3]))
        sol = sgl(instance, AlgorithmConfig(seed=0))
        assert list(sol.x) == [2, 2, 2]
        assert sol.queries == 1
        assert sol.iterations == 0

    def test_zero_budget(self):
        instance = ProblemInstance(**dict(LINEAR_123, r=0))
        sol = sgl(instance, AlgorithmConfig(seed=0))
        assert list(sol.x) == [0, 0, 0]
        assert sol.value == 0.0
        assert sol.queries == 0

    def test_equal_seeds_reproduce_exactly(self):
        instance = ProblemInstance(n=6, b=as_point([3, 1, 4, 2, 3, 2]), r=7,
                                   objective=weighted_concave_sqrt([3, 9, 27, 50, 81, 96]))
        a = sgl(instance, AlgorithmConfig(seed=123456789))
        b = sgl(instance, AlgorithmConfig(seed=123456789))
        assert list(a.x) == list(b.x)
        assert a.value == b.value
        assert a.queries == b.queries
        assert a.iterations == b.iterations

    def test_stall_guard_flags_and_terminates(self):
        # after the first copy the next marginal 10*(sqrt(2)-1) sits below
        # theta_stop = 0.9*10/2, so floor passes can never commit
        instance = ProblemInstance(n=1, b=as_point([5]), r=2,
                                   objective=weighted_concave_sqrt([10]))
        sol = sgl(instance, AlgorithmConfig(epsilon=0.9, seed=3))
        assert sol.stalled
        assert list(sol.x) == [1]
        assert sol.value == 10.0
        assert sol.iterations == 3  # commit pass plus two idle floor passes
        assert cardinality(sol.x) < instance.r

    def test_trace_values_never_decrease(self):
        instance = ProblemInstance(n=5, b=as_point([3, 2, 4, 1, 3]), r=6,
                                   objective=weighted_concave_sqrt([5, 20, 40, 70, 100]))
        trace = []
        sgl(instance, AlgorithmConfig(seed=7), trace=trace)
        values = [stats.value for stats in trace]
        assert values == sorted(values)

    def test_trace_caps_and_query_bound(self):
        instance = ProblemInstance(n=8, b=as_point([4, 2, 5, 3, 1, 4, 2, 5]), r=9,
                                   objective=weighted_linear([2, 5, 11, 23, 41, 60, 85, 99]))
        cap = min(5, instance.r)
        trace = []
        sgl(instance, AlgorithmConfig(seed=5), trace=trace)
        for stats in trace:
            assert stats.max_step_cap <= cap
            assert stats.queries <= stats.sample_size * math.ceil(math.log2(cap + 1)) + 1


class TestSomaDrI:
    def test_optimum_on_small_modular_instance(self):
        sol = soma_dr_i(ProblemInstance(**LINEAR_123))
        assert sol.value == 8.0

    def test_concave_two_element_instance(self):
        instance = ProblemInstance(n=2, b=as_point([4, 4]), r=4,
                                   objective=weighted_concave_sqrt([9, 1]))
        sol = soma_dr_i(instance)
        assert list(sol.x) == [4, 0]
        assert sol.value == 18.0

    def test_shortcut_and_zero_budget(self):
        instance = ProblemInstance(n=2, b=as_point([1, 2]), r=3,
                                   objective=weighted_linear([5, 6]))
        sol = soma_dr_i(instance)
        assert list(sol.x) == [1, 2]
        assert sol.queries == 1
        empty = soma_dr_i(ProblemInstance(n=2, b=as_point([1, 2]), r=0,
                                          objective=weighted_linear([5, 6])))
        assert list(empty.x) == [0, 0]

    def test_bit_identical_across_runs(self):
        instance = ProblemInstance(n=4, b=as_point([3, 3, 3, 3]), r=5,
                                   objective=weighted_concave_sqrt([4, 16, 36, 64]))
        a = soma_dr_i(instance)
        b = soma_dr_i(instance)
        assert list(a.x) == list(b.x)
        assert (a.value, a.queries, a.iterations) == (b.value, b.queries, b.iterations)


class TestSsg:
    def test_finds_optimum_with_high_frequency(self):
        instance = ProblemInstance(**LINEAR_123)
        hits = sum(ssg(instance, AlgorithmConfig(seed=seed)).value == 8.0
                   for seed in range(50))
        assert hits >= 45

    def test_zero_budget(self):
        sol = ssg(ProblemInstance(**dict(LINEAR_123, r=0)), AlgorithmConfig(seed=1))
        assert list(sol.x) == [0, 0, 0]
        assert sol.value == 0.0

    def test_unit_caps_match_set_domain_stochastic_greedy(self):
        # with b = 1 the copy expansion is the identity, so ssg must walk in
        # lockstep with a plain set-domain stochastic greedy on the same seed
        n, r = 8, 4
        w = [3, 11, 24, 37, 52, 68, 85, 97]
        instance = ProblemInstance(n=n, b=as_point([1] * n), r=r,
                                   objective=weighted_concave_sqrt(w))
        eps = 1.0 / (4.0 * n)
        for seed in range(10):
            got = ssg(instance, AlgorithmConfig(seed=seed))
            rng = np.random.Generator(np.random.PCG64(seed))
            x = np.zeros(n, dtype=np.int64)
            s_raw = math.floor((n / r) * math.log(1.0 / eps))
            for _ in range(r):
                remaining = np.flatnonzero(x == 0)
                s = min(max(1, s_raw), remaining.size)
                slots = _sample_without_replacement(rng, np.arange(remaining.size), s)
                best_e, best_val = -1, -math.inf
                for e in remaining[slots]:
                    y = x.copy()
                    y[int(e)] += 1
                    val = float(instance.objective(y))
                    if val > best_val or (val == best_val and int(e) < best_e):
                        best_val, best_e = val, int(e)
                x[best_e] += 1
            assert list(got.x) == list(x)

    def test_equal_seeds_reproduce_exactly(self):
        instance = ProblemInstance(n=5, b=as_point([2, 3, 1, 4, 2]), r=6,
                                   objective=weighted_linear([7, 19, 40, 66, 93]))
        a = ssg(instance, AlgorithmConfig(seed=99))
        b = ssg(instance, AlgorithmConfig(seed=99))
        assert list(a.x) == list(b.x)
        assert (a.value, a.queries) == (b.value, b.queries)


class TestGreedyLattice:
    def test_modular_example(self):
        sol = greedy_lattice(ProblemInstance(**LINEAR_123))
        assert list(sol.x) == [0, 1, 2]
        assert sol.value == 8.0

    def test_zero_budget(self):
        sol = greedy_lattice(ProblemInstance(**dict(LINEAR_123, r=0)))
        assert list(sol.x) == [0, 0, 0]

    def test_single_productive_element_fills_to_its_cap(self):
        obj = custom_objective(2, lambda x: 3.0 * min(int(x[0]), 5))
        instance = ProblemInstance(n=2, b=as_point([3, 4]), r=6, objective=obj)
        sol = greedy_lattice(instance)
        assert list(sol.x) == [3, 0]
        assert sol.value == 9.0

    def test_stops_once_gains_vanish(self):
        obj = custom_objective(1, lambda x: float(min(int(x[0]), 2)))
        sol = greedy_lattice(ProblemInstance(n=1, b=as_point([9]), r=7, objective=obj))
        assert list(sol.x) == [2]
        assert sol.iterations == 2


class TestExactBruteforce:
    def test_enumerates_small_modular_instance(self):
        sol = exact_bruteforce(ProblemInstance(**LINEAR_123))
        assert sol.value == 8.0
        assert list(sol.x) == [0, 1, 2]
        assert sol.iterations == 17  # |{x <= b : |x|_1 <= 3}|

    def test_zero_budget_and_single_element(self):
        sol = exact_bruteforce(ProblemInstance(**dict(LINEAR_123, r=0)))
        assert list(sol.x) == [0, 0, 0]
        assert sol.value == 0.0
        one = exact_bruteforce(ProblemInstance(n=1, b=as_point([5]), r=3,
                                               objective=weighted_linear([4])))
        assert list(one.x) == [3]
        assert one.value == 12.0

    def test_ties_go_to_lexicographically_smallest(self):
        instance = ProblemInstance(n=2, b=as_point([1, 1]), r=1,
                                   objective=weighted_linear([2, 2]))
        sol = exact_bruteforce(instance)
        assert list(sol.x) == [0, 1]

    def test_refuses_oversized_enumeration(self):
        instance = ProblemInstance(n=7, b=as_point([9] * 7), r=63,
                                   objective=weighted_linear([1] * 7))
        with pytest.raises(ExhaustivenessCapError):
            exact_bruteforce(instance)


SOLVER_RUNNERS = {
    "sgl": lambda inst, seed: sgl(inst, AlgorithmConfig(seed=seed)),
    "soma-dr-i": lambda inst, seed: soma_dr_i(inst),
    "ssg": lambda inst, seed: ssg(inst, AlgorithmConfig(seed=seed)),
    "greedy": lambda inst, seed: greedy_lattice(inst),
    "exact": lambda inst, seed: exact_bruteforce(inst),
}


@pytest.mark.parametrize("name", sorted(SOLVER_RUNNERS))
def test_feasibility_on_1000_random_instances(name, rng):
    run = SOLVER_RUNNERS[name]
    for i in range(1000):
        instance = random_tiny_instance(
            rng, max_n=4, max_b=3, max_r=6,
            kinds=("weighted-linear", "weighted-concave-sqrt"))
        sol = run(instance, i)
        assert leq(sol.x, instance.b)
        assert cardinality(sol.x) <= instance.r
        assert instance.is_feasible(sol.x)


@pytest.mark.parametrize("name", sorted(SOLVER_RUNNERS))
def test_reported_queries_match_independent_tally(name):
    calls = [0]
    base = weighted_linear([3, 14, 15, 9, 2])

    def spy(x):
        calls[0] += 1
        return base(x)

    instance = ProblemInstance(n=5, b=as_point([2, 3, 1, 2, 3]), r=5,
                               objective=custom_objective(5, spy))
    sol = SOLVER_RUNNERS[name](instance, 17)
    # the solution's value field is re-evaluated outside the counter
    assert calls[0] == sol.queries + 1


@pytest.mark.parametrize("name", ["sgl", "soma-dr-i", "ssg", "greedy"])
@pytest.mark.parametrize("r", [6, 13])
def test_trace_accounts_for_every_query(name, r):
    # every single-copy gain is positive, so greedy never stops on a zero gain
    instance = ProblemInstance(n=5, b=as_point([2, 3, 1, 4, 3]), r=r,
                               objective=weighted_concave_sqrt([7, 30, 2, 55, 91]))
    trace = []
    runner = {"sgl": sgl, "soma-dr-i": soma_dr_i, "ssg": ssg, "greedy": greedy_lattice}[name]
    sol = runner(instance, AlgorithmConfig(algorithm=name, seed=4), trace=trace)
    assert len(trace) == sol.iterations
    threshold = name in ("sgl", "soma-dr-i")
    if threshold and r >= cardinality(instance.b):
        assert (len(trace), sol.queries) == (0, 1)  # the box shortcut
    else:
        prologue = 1 + instance.n if threshold else 1  # f(0), then the singletons
        assert sum(stats.queries for stats in trace) + prologue == sol.queries
        assert trace
    if not threshold:
        assert all(stats.theta is None and stats.max_step_cap == 1 for stats in trace)


def test_modular_instances_solved_exactly_by_deterministic_solvers(rng):
    for _ in range(30):
        instance = random_tiny_instance(rng, max_n=4, max_b=3, max_r=6)
        opt = exact_bruteforce(instance).value
        config = AlgorithmConfig(epsilon=0.01)
        assert soma_dr_i(instance, config).value == opt
        assert greedy_lattice(instance, config).value == opt


def test_solve_dispatches_every_algorithm():
    instance = ProblemInstance(**LINEAR_123)
    for name in SOLVER_RUNNERS:
        sol = solve(instance, AlgorithmConfig(algorithm=name, seed=2))
        assert instance.is_feasible(sol.x)
        assert sol.value >= 0.0


def test_solution_values_are_fresh_evaluations(rng):
    for _ in range(20):
        instance = random_tiny_instance(
            rng, kinds=("weighted-linear", "weighted-concave-sqrt"))
        sol = sgl(instance, AlgorithmConfig(seed=0))
        assert sol.value == float(instance.objective(sol.x))


class TestSampleWithoutReplacement:
    @given(st.integers(0, 40), st.randoms(use_true_random=False))
    def test_distinct_subset(self, pool_size, pyrandom):
        rng = np.random.Generator(np.random.PCG64(pyrandom.getrandbits(32)))
        pool = np.arange(100, 100 + pool_size)
        k = pyrandom.randint(0, pool_size)
        out = _sample_without_replacement(rng, pool, k)
        assert len(out) == k
        assert len(set(out.tolist())) == k
        assert set(out.tolist()) <= set(pool.tolist())

    def test_rejects_oversized_draw(self, rng):
        with pytest.raises(ValueError):
            _sample_without_replacement(rng, np.arange(3), 4)

    def test_leaves_pool_untouched(self, rng):
        pool = np.arange(10)
        _sample_without_replacement(rng, pool, 5)
        assert list(pool) == list(range(10))

    def test_covers_the_pool_over_many_draws(self, rng):
        seen = set()
        for _ in range(200):
            seen.update(_sample_without_replacement(rng, np.arange(6), 2).tolist())
        assert seen == set(range(6))
