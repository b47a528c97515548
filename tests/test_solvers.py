"""Solver unit tests: binary-search step selection, the five maximizers,
and the reported approximation bound."""

import itertools
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
    unit,
    weighted_concave_sqrt,
    weighted_linear,
)
from latmax.checks import random_tiny_instance, scan_step
from latmax.lattice import _LinearState, _SqrtState
from latmax.solvers import (
    MAX_STALLED_PASSES,
    SSG_SLOT_CAP,
    PassStats,
    _sample_slot_sets,
    _finish,
    _WordStream,
)


def probes_of(objective, x, e, k_max, theta):
    """Run max_feasible_step from x on a fresh oracle; count the probes after f(x)."""
    oracle = CountingOracle(objective)
    fx = oracle.follow(x)
    hit = max_feasible_step(oracle, e, k_max, theta, fx=fx)
    return hit, oracle.queries - 1


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
        assert guarantee_bound("sgl", 100, 50, eps) == expected

    def test_guarantee_bound_rejects_unknown_algorithm(self):
        # the per-algorithm values are checked through make_record in test_bench
        with pytest.raises(ValueError, match="unknown algorithm"):
            guarantee_bound("SGL", 10, 5, 0.1)

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
        with pytest.raises(ValueError, match="integer"):
            AlgorithmConfig(seed=1.5)
        with pytest.raises(ValueError):
            AlgorithmConfig(algorithm="simulated-annealing")
        with pytest.raises(ValueError):
            AlgorithmConfig(time_budget=-1.0)
        with pytest.raises(ValueError, match="nan"):
            AlgorithmConfig(time_budget=math.nan)
        for flag in (True, np.False_):
            with pytest.raises(ValueError, match="time_budget"):
                AlgorithmConfig(time_budget=flag)

    def test_bool_seed_is_rejected(self):
        # bool is an int subclass, so True used to be stored as the seed
        for seed in (True, False):
            with pytest.raises(ValueError, match="integer"):
                AlgorithmConfig(seed=seed)

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


def assert_sgl_matches_reference(instance, seed, eps):
    """sgl commits, charges and traces as a pass-by-pass loop that re-lists
    the elements below their caps and draws each pass's sample by its own
    sampler call, probing with full evaluations."""
    trace = []
    got = sgl(instance, AlgorithmConfig(seed=seed, epsilon=eps), trace=trace)
    n, b, r, f = instance.n, instance.b, instance.r, instance.objective
    eps = eps if eps is not None else 1.0 / (4.0 * n)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros(n, dtype=np.int64)
    fx = f(x)
    theta = d = max(f(unit(n, e)) for e in range(n))
    theta_stop = (eps / r) * d
    s_raw = max(1, sample_size(n, r, eps))
    queries, card, idle, stalled, expected = 1 + n, 0, 0, False, []
    while card < r:
        available = np.flatnonzero(x < b)
        s = min(s_raw, available.size)
        before, committed, cap_seen = queries, False, 0
        for e in available[copying_fisher_yates(rng, available.size, s)].tolist():
            k_cap = min(int(b[e] - x[e]), r - card)
            if k_cap <= 0:
                continue
            cap_seen = max(cap_seen, k_cap)
            lo, hi, best = 1, k_cap, None
            while lo <= hi:
                mid = (lo + hi) // 2
                val = f(x + mid * unit(n, e))
                queries += 1
                if val - fx >= mid * theta:
                    best, lo = (mid, val), mid + 1
                else:
                    hi = mid - 1
            if best is not None and best[1] >= fx:
                x[e] += best[0]
                fx = best[1]
                card += best[0]
                committed = True
        expected.append(PassStats(queries=queries - before, sample_size=s,
                                  max_step_cap=cap_seen, committed=committed, value=fx,
                                  theta=theta))
        if card >= r:
            break
        if theta <= theta_stop:
            idle = 0 if committed else idle + 1
            if idle >= MAX_STALLED_PASSES:
                stalled = True
                break
        theta = max(theta * (1.0 - eps), theta_stop)
    assert got.x.tolist() == x.tolist()
    assert (got.value, got.queries, got.iterations, got.stalled) == \
        (f(x), queries, len(expected), stalled)
    assert trace == expected


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


    @given(st.data())
    def test_matches_pass_by_pass_reference(self, data):
        # small caps fill elements and shrink the pool mid-block, large sqrt
        # caps take commits that fill nothing, small budgets give s >= m, and
        # eps = 0.9 stalls at the floor
        n = data.draw(st.integers(1, 40))
        top = data.draw(st.sampled_from([1, 3, 30]))
        b = as_point(data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
        total = cardinality(b)
        r = data.draw(st.integers(1, max(1, total - 1)) | st.integers(1, 4))
        w = data.draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
        make = data.draw(st.sampled_from([weighted_linear, weighted_concave_sqrt]))
        instance = ProblemInstance(n=n, b=b, r=r, objective=make(w))
        eps = data.draw(st.sampled_from([None, 0.01, 0.05, 0.3, 0.9]))
        seed = data.draw(st.integers(0, 2 ** 64 - 1))
        if r < total:
            assert_sgl_matches_reference(instance, seed, eps)

        late = sgl(instance, AlgorithmConfig(seed=seed, epsilon=eps, time_budget=0))
        assert late.timed_out and late.x.tolist() == [0] * n and late.value == 0.0

    @pytest.mark.parametrize("n, r, eps", [
        (600, 4, 0.1),     # s = 345 > 256: one pass a block
        (300, 2, 0.1),     # s = 345 >= m = 300
        (400, 3, 0.2),     # s = 214
        (200, 10, 0.3),    # s = 24, near-full blocks
    ])
    def test_wide_samples_match_reference(self, n, r, eps):
        rng = np.random.Generator(np.random.PCG64(n + r))
        for make, top in ((weighted_linear, 1), (weighted_concave_sqrt, 20)):
            instance = ProblemInstance(n=n, b=rng.integers(1, top + 1, size=n), r=r,
                                       objective=make(rng.integers(1, 101, size=n)))
            for seed in range(3):
                assert_sgl_matches_reference(instance, seed, eps)

    def test_shrinking_pools_match_reference(self):
        # unit caps: every commit fills its element, mostly mid-block
        rng = np.random.Generator(np.random.PCG64(41))
        for trial in range(30):
            n = int(rng.integers(5, 80))
            instance = ProblemInstance(
                n=n, b=rng.integers(1, 3, size=n), r=int(rng.integers(2, n)),
                objective=weighted_linear(rng.integers(1, 101, size=n)))
            assert_sgl_matches_reference(instance, trial, (None, 0.05, 0.3)[trial % 3])

    def test_unit_caps_and_multi_fill_passes_match_reference(self):
        # unit caps: every commit fills its element; budgets just below n drop the
        # pool below the sample size, and low thresholds fill several elements a pass
        rng = np.random.Generator(np.random.PCG64(43))
        dropped = multi = 0
        for trial in range(24):
            n = int(rng.integers(4, 60))
            r = int(rng.integers(max(1, n - 6), n))
            w = rng.integers(1, 101, size=n)
            eps = (0.01, 0.05, 0.3)[trial % 3]
            instance = ProblemInstance(n=n, b=np.ones(n, dtype=np.int64), r=r,
                                       objective=weighted_linear(w))
            assert_sgl_matches_reference(instance, trial, eps)
            trace = []
            sgl(instance, AlgorithmConfig(seed=trial, epsilon=eps), trace=trace)
            dropped += any(t.sample_size < sample_size(n, r, eps) for t in trace)
            values = [0.0] + [t.value for t in trace]
            multi += any(b - a > w.max() for a, b in zip(values, values[1:]))
        assert dropped >= 5 and multi >= 5


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


def assert_ssg_matches_reference(instance, seed, eps):
    """ssg commits, charges and traces as a round-by-round loop over the
    ordered shuffle, mapping slots with searchsorted, smallest id on ties."""
    trace = []
    got = ssg(instance, AlgorithmConfig(seed=seed, epsilon=eps), trace=trace)
    n, b, r, f = instance.n, instance.b, instance.r, instance.objective
    rng = np.random.Generator(np.random.PCG64(seed))
    s_raw = sample_size(cardinality(b), r, eps if eps is not None else 1.0 / (4.0 * n))
    x = np.zeros(n, dtype=np.int64)
    queries, expected = 1, []
    for _ in range(r):
        gaps = b - x
        remaining = int(gaps.sum())
        if remaining == 0:
            break
        slots = copying_fisher_yates(rng, remaining, min(max(1, s_raw), remaining))
        picked = np.searchsorted(np.cumsum(gaps), slots, side="right").tolist()
        vals = [f(x + unit(n, e)) for e in picked]
        best = max(vals)
        x[min(e for e, v in zip(picked, vals) if v == best)] += 1
        queries += len(picked)
        expected.append(PassStats(queries=len(picked), sample_size=len(picked),
                                  max_step_cap=1, committed=True, value=best))
    assert got.x.tolist() == x.tolist()
    assert (got.value, got.queries) == (f(x), queries)
    assert trace == expected


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
                slots = copying_fisher_yates(rng, remaining.size, s)
                best_e, best_val = -1, -math.inf
                for e in remaining[slots]:
                    y = x.copy()
                    y[int(e)] += 1
                    val = float(instance.objective(y))
                    if val > best_val or (val == best_val and int(e) < best_e):
                        best_val, best_e = val, int(e)
                x[best_e] += 1
            assert list(got.x) == list(x)

    def test_ties_go_to_smallest_sampled_element(self):
        # equal weights and caps: every sampled slot ties, so each round must
        # commit the smallest sampled element id, also when a sampled element
        # owns several of the sampled slots
        n, cap, r, eps = 4, 3, 9, 0.1
        instance = ProblemInstance(n=n, b=as_point([cap] * n), r=r,
                                   objective=weighted_linear([5] * n))
        repeated = above_zero = 0
        for seed in range(20):
            got = ssg(instance, AlgorithmConfig(seed=seed, epsilon=eps))
            rng = np.random.Generator(np.random.PCG64(seed))
            x = np.zeros(n, dtype=np.int64)
            s_raw = math.floor((n * cap / r) * math.log(1.0 / eps))
            for _ in range(r):
                gaps = instance.b - x
                s = min(s_raw, int(gaps.sum()))
                slots = copying_fisher_yates(rng, int(gaps.sum()), s)
                picked = np.searchsorted(np.cumsum(gaps), slots, side="right")
                repeated += len(set(picked.tolist())) < s
                above_zero += int(picked.min()) > 0
                x[int(picked.min())] += 1
            assert got.x.tolist() == x.tolist()
        assert repeated and above_zero

    @given(st.data())
    def test_matches_per_round_reference(self, data):
        n = data.draw(st.integers(1, 6))
        b = as_point(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))
        total = cardinality(b)
        # budgets near |b|_1 end with pools smaller than the sample size
        r = data.draw(st.integers(1, total + 2) | st.integers(max(1, total - 3), total + 2))
        w = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        make = data.draw(st.sampled_from([weighted_linear, weighted_concave_sqrt]))
        instance = ProblemInstance(n=n, b=b, r=r, objective=make(w))
        eps = data.draw(st.sampled_from([None, 0.01, 0.3, 0.9]))
        seed = data.draw(st.integers(0, 2 ** 32))
        assert_ssg_matches_reference(instance, seed, eps)

        late = ssg(instance, AlgorithmConfig(seed=seed, epsilon=eps, time_budget=0))
        assert late.timed_out and late.x.tolist() == [0] * n and late.value == 0.0

    def test_block_spanning_every_round_matches_reference(self):
        # s = 1 over 60 slots: one block serves all 50 rounds
        instance = ProblemInstance(n=3, b=as_point([20, 20, 20]), r=50,
                                   objective=weighted_linear([1, 2, 3]))
        for seed in range(5):
            assert_ssg_matches_reference(instance, seed, 0.9)

    def test_rounds_that_take_every_slot_match_reference(self):
        # s = floor((12 / r) * log(100)) of |b|_1 = 12 slots: the last rounds'
        # pools fall to s and below, so they take every slot left and draw nothing
        for r in (10, 12):
            instance = ProblemInstance(n=3, b=as_point([4, 5, 3]), r=r,
                                       objective=weighted_concave_sqrt([3, 7, 5]))
            for seed in range(10):
                assert_ssg_matches_reference(instance, seed, 0.01)
            s = sample_size(12, r, 0.01)
            assert s in (4, 5)
            trace = []
            ssg(instance, AlgorithmConfig(seed=0, epsilon=0.01), trace=trace)
            assert [stats.sample_size for stats in trace] == [min(s, 12 - t) for t in range(r)]

    def test_refuses_rounds_above_the_slot_cap_before_any_draw(self, monkeypatch):
        # 2**40 copies of one element: each round would score about 9.1e11 slots
        def no_draws(seed):
            raise AssertionError("a refused run draws nothing")

        monkeypatch.setattr("latmax.solvers._WordStream", no_draws)
        huge = ProblemInstance(n=3, b=as_point([2 ** 40, 1, 1]), r=3,
                               objective=weighted_linear([1, 2, 3]))
        s = sample_size(2 ** 40 + 2, 3, 1 / 12)
        with pytest.raises(ValueError, match=f"score {s} copy slots, cap is {SSG_SLOT_CAP}"):
            ssg(huge, AlgorithmConfig(seed=0))
        # the cap bounds min(s, |b|_1): here s = 9 of 12 slots, then s = 18 above them
        monkeypatch.undo()
        instance = ProblemInstance(n=3, b=as_point([4, 5, 3]), r=3,
                                   objective=weighted_linear([1, 2, 3]))
        for eps, scored in ((0.1, 9), (0.01, 12)):
            monkeypatch.setattr("latmax.solvers.SSG_SLOT_CAP", scored)
            ssg(instance, AlgorithmConfig(seed=0, epsilon=eps))
            monkeypatch.setattr("latmax.solvers.SSG_SLOT_CAP", scored - 1)
            with pytest.raises(ValueError, match=f"score {scored} copy slots"):
                ssg(instance, AlgorithmConfig(seed=0, epsilon=eps))

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

    def test_ties_go_to_smallest_element(self):
        instance = ProblemInstance(n=4, b=as_point([2, 2, 2, 2]), r=5,
                                   objective=weighted_linear([5, 5, 5, 5]))
        assert greedy_lattice(instance).x.tolist() == [2, 2, 1, 0]

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

    @pytest.mark.parametrize("budget", [float("nan"), True, -1.0])
    def test_rejects_budgets_the_config_rejects(self, budget):
        with pytest.raises(ValueError, match="time_budget"):
            AlgorithmConfig(algorithm="exact", time_budget=budget)
        with pytest.raises(ValueError, match="time_budget"):
            exact_bruteforce(ProblemInstance(**LINEAR_123), budget)

    def test_refuses_oversized_enumeration(self):
        instance = ProblemInstance(n=7, b=as_point([9] * 7), r=63,
                                   objective=weighted_linear([1] * 7))
        with pytest.raises(ExhaustivenessCapError):
            exact_bruteforce(instance)

    def test_matches_whole_box_enumeration(self, rng, monkeypatch):
        # reference: build the whole min(b, r) box, keep |x|_1 <= r, in order;
        # chunks of 1 and 7 points make the enumeration fix values one at a time
        def whole_box(instance):
            caps = tuple(int(c) for c in np.minimum(instance.b, instance.r) + 1)
            grid = np.indices(caps).reshape(instance.n, -1).T
            feasible = grid[grid.sum(axis=1) <= instance.r]
            vals = instance.objective.batch(feasible)
            i = int(np.argmax(vals))
            return feasible[i].tolist(), float(instance.objective(feasible[i])), len(feasible)

        for trial in range(600):
            monkeypatch.setattr("latmax.solvers._BRUTE_FORCE_CHUNK", (1 << 16, 1, 7)[trial % 3])
            instance = random_tiny_instance(
                rng, max_n=6, max_b=4, max_r=9,
                kinds=("weighted-linear", "weighted-concave-sqrt"))
            if rng.random() < 0.3:  # many ties
                instance = ProblemInstance(n=instance.n, b=instance.b, r=instance.r,
                                           objective=weighted_linear([5] * instance.n))
            sol = exact_bruteforce(instance)
            x, value, count = whole_box(instance)
            assert (sol.x.tolist(), sol.value, sol.iterations, sol.queries) == \
                (x, value, count, count)


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


ITERATIVE_RUNNERS = {"sgl": sgl, "soma-dr-i": soma_dr_i, "ssg": ssg, "greedy": greedy_lattice}


@pytest.mark.parametrize("name", sorted(SOLVER_RUNNERS))
@pytest.mark.parametrize("expiry", [2, 3])
def test_time_budget_spent_mid_run(name, expiry, monkeypatch):
    # the clock's check number `expiry` finds the budget spent, after the start
    # of the run: it stops there with a feasible incumbent, its fresh value,
    # and the queries of the passes or chunks it finished
    instance = ProblemInstance(n=5, b=as_point([2, 3, 1, 4, 3]), r=8,
                               objective=weighted_concave_sqrt([7, 30, 2, 55, 91]))
    points = exact_bruteforce(instance).queries
    checks = [0]

    def out_of_time(start, budget):
        checks[0] += 1
        return checks[0] >= expiry

    monkeypatch.setattr("latmax.solvers._out_of_time", out_of_time)
    monkeypatch.setattr("latmax.solvers._BRUTE_FORCE_CHUNK", 4)
    if name == "exact":
        sol = exact_bruteforce(instance, time_budget=1.0)
        assert 0 < sol.queries == sol.iterations <= 4 * (expiry - 1) < points
    else:
        trace = []
        config = AlgorithmConfig(algorithm=name, seed=4, time_budget=1.0)
        sol = ITERATIVE_RUNNERS[name](instance, config, trace=trace)
        assert len(trace) == sol.iterations == expiry - 2  # check 1 is before the start
        setup = 1 + instance.n if name in ("sgl", "soma-dr-i") else 1
        assert sol.queries == setup + sum(stats.queries for stats in trace)
    assert sol.timed_out and instance.is_feasible(sol.x)
    assert sol.value == instance.objective(sol.x)


@pytest.mark.parametrize("name", sorted(ITERATIVE_RUNNERS))
@pytest.mark.parametrize("kind", ["linear", "sqrt", "custom"])
def test_queries_match_oracle_call_tally(name, kind, monkeypatch):
    # every query goes through one of the three oracle entry points; an entry
    # point called from inside another (evaluate's one-row batch) is the outer
    # call's, so each query is counted once
    tally, depth = [0], [0]

    def counted(method, size):
        def call(self, *args):
            tally[0] += 0 if depth[0] else size(args)
            depth[0] += 1
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
        return call

    for attr, size in (("evaluate", lambda args: 1), ("evaluate_stepped", lambda args: 1),
                       ("evaluate_batch", lambda args: len(args[0]))):
        monkeypatch.setattr(CountingOracle, attr, counted(getattr(CountingOracle, attr), size))
    w = [3, 14, 15, 92, 65, 35, 89]
    objective = {"linear": weighted_linear(w), "sqrt": weighted_concave_sqrt(w),
                 "custom": custom_objective(7, lambda x: float(np.sqrt(x + 1) @ w))}[kind]
    instance = ProblemInstance(n=7, b=as_point([2, 3, 1, 4, 3, 2, 5]), r=9,
                               objective=objective)
    sol = ITERATIVE_RUNNERS[name](instance, AlgorithmConfig(algorithm=name, seed=11))
    assert sol.queries > instance.n
    assert tally[0] == sol.queries


@pytest.mark.parametrize("name", sorted(ITERATIVE_RUNNERS))
@pytest.mark.parametrize("weights", ["equal", "duplicated"])
def test_certified_probes_keep_trajectories(name, weights, monkeypatch):
    # tie-heavy sqrt instances put gains exactly on the bar, where the certified
    # interval cannot decide, and make unit-step candidates tie exactly, where a
    # screened scan cannot rule one out; the run must match one on exact probes
    rng = np.random.Generator(np.random.PCG64(29))
    n = 60
    w = np.full(n, 7) if weights == "equal" else rng.choice([3, 40, 97], size=n)
    instances = [ProblemInstance(n=n, b=rng.integers(1, 13, size=n), r=r,
                                 objective=weighted_concave_sqrt(w)) for r in (15, 120)]

    def runs():
        out = []
        for seed, instance in enumerate(instances):
            trace = []
            sol = ITERATIVE_RUNNERS[name](instance, AlgorithmConfig(algorithm=name, seed=seed),
                                          trace=trace)
            out.append((sol.x.tolist(), sol.value, sol.queries, trace))
        return out

    probe, stepped, batch = (CountingOracle.evaluate_stepped, _SqrtState.stepped,
                             CountingOracle.evaluate_batch)
    probes, fallbacks, probing = [0], [0], [False]

    def counted(method, size):
        def call(self, *args):
            probes[0] += size(args)
            probing[0] = True
            try:
                return method(self, *args)
            finally:
                probing[0] = False
        return call

    def counted_stepped(self, e, k):
        fallbacks[0] += probing[0]
        return stepped(self, e, k)

    # threshold step probes, or unit-step scans (not full evaluations), each of
    # whose rows an exact scan answers with one dot product
    unit_step = name in ("ssg", "greedy")
    if unit_step:
        monkeypatch.setattr(CountingOracle, "evaluate_batch",
                            counted(batch, lambda a: len(a[0]) if a[0].ndim == 1 else 0))
    else:
        monkeypatch.setattr(CountingOracle, "evaluate_stepped", counted(probe, lambda a: 1))
    monkeypatch.setattr(_SqrtState, "stepped", counted_stepped)
    certified = runs()
    # a candidate tied exactly with the best still needs its dot product, which
    # may differ from the best's in the last bit, and equal weights tie whole
    # levels of candidates: there the screen saves less than half
    assert 1 <= fallbacks[0] < probes[0] / (1 if unit_step and weights == "equal" else 2)
    monkeypatch.setattr(CountingOracle, "evaluate_stepped",
                        lambda self, e, k, *bar: probe(self, e, k))
    # a bar of -inf, which every probe clears, makes every answer exact; with no
    # bar a batch screens its probes itself
    monkeypatch.setattr(CountingOracle, "evaluate_batch",
                        lambda self, rows, steps=None, *bar: batch(self, rows, steps,
                                                                   0.0, -math.inf))
    assert runs() == certified


@pytest.mark.parametrize("name", sorted(SOLVER_RUNNERS))
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_objective_is_rejected(name, bad):
    instance = ProblemInstance(n=3, b=as_point([1, 1, 1]), r=3,
                               objective=custom_objective(3, lambda x: bad))
    with pytest.raises(ValueError, match="objective returned"):
        SOLVER_RUNNERS[name](instance, 5)


@pytest.mark.parametrize("name", sorted(SOLVER_RUNNERS))
@pytest.mark.parametrize("write", [(7, 3), (0, 0)])
def test_objective_that_writes_its_point_is_rejected(name, write):
    # a custom callable gets a read-only point, so a write raises at the write:
    # x[7] = 3 would otherwise push |x|_1 above r, and x[0] = 0 leave a negative
    # entry behind a probe, and either run would return an infeasible x
    w = np.arange(1, 9)
    at, value = write

    def writes(x):
        fx = float(np.sqrt(x) @ w)
        x[at] = value
        return fx

    instance = ProblemInstance(n=8, b=as_point([3] * 8), r=4,
                               objective=custom_objective(8, writes))
    with pytest.raises(ValueError, match="read-only"):
        SOLVER_RUNNERS[name](instance, 5)


def test_infeasible_solution_is_never_returned():
    instance = ProblemInstance(n=2, b=as_point([1, 2]), r=2, objective=weighted_linear([1, 2]))
    oracle = CountingOracle(instance.objective)
    for x in ([1, 2], [2, 0], [-1, 1]):
        with pytest.raises(RuntimeError, match=r"infeasible point \[" + str(x[0])):
            _finish(instance, np.array(x), oracle, 0, 0.0)
    assert _finish(instance, np.array([0, 2]), oracle, 0, 0.0).value == 4.0


@pytest.mark.parametrize("kind", ["linear", "sqrt", "custom"])
def test_unit_step_values_match_scalar_evaluations(kind, rng):
    n = 3000
    w = rng.integers(1, 101, size=n)
    objective = {"linear": weighted_linear(w), "sqrt": weighted_concave_sqrt(w),
                 "custom": custom_objective(n, lambda x: float(np.sqrt(x) @ w))}[kind]
    x = rng.integers(0, 5, size=n)
    before = x.copy()
    elements = np.concatenate([rng.integers(0, n, size=40), [0, n - 1, 7, 7]])
    oracle = CountingOracle(objective)
    oracle.follow(x)
    values = oracle.evaluate_batch(elements, None, 0.0, -math.inf)
    assert oracle.queries == 1 + elements.size
    assert x.tolist() == before.tolist()
    assert values.tolist() == [objective(x + np.eye(1, n, e, dtype=np.int64)[0])
                               for e in elements.tolist()]


def test_short_sqrt_scans_keep_the_exact_first_maximum(rng, monkeypatch):
    # a batch given no bar screens itself, however short: the first maximum and
    # its value are the exact scan's, at one query per candidate, for every kind,
    # and the scan keeps no plan; only sqrt answers some candidates by their
    # upper end, since a linear interval is exact and a custom one unbounded
    stepped, exact_probes, probes = _SqrtState.stepped, [0], 0

    def counted(self, e, k):
        exact_probes[0] += 1
        return stepped(self, e, k)

    monkeypatch.setattr(_SqrtState, "stepped", counted)
    makes = (weighted_concave_sqrt, weighted_linear,
             lambda w: custom_objective(w.size, lambda x: float(np.sqrt(x) @ w)))
    for trial in range(1200):  # 400 of each kind
        make = makes[trial % 3]
        n = int(rng.integers(1, 40))
        objective = make(rng.choice([3, 40, 97], size=n))  # exact ties too
        x = rng.integers(0, 4, size=n)
        elements = rng.integers(0, n, size=int(rng.integers(1, 21)))
        oracle = CountingOracle(objective)
        oracle.follow(x)
        values = oracle.evaluate_batch(elements)
        assert oracle.queries == 1 + elements.size and oracle.plan is None
        exact = [objective(x + unit(n, e)) for e in elements.tolist()]
        best = int(np.argmax(exact))
        assert int(values.argmax()) == best and values[best] == exact[best]
        if make is not weighted_concave_sqrt:
            assert values.tolist() == exact
        else:
            probes += elements.size
        assert oracle.evaluate_batch(elements[:0]).size == 0  # an empty scan
        assert oracle.queries == 1 + elements.size
    assert exact_probes[0] < probes  # the screen answered some candidates by their upper end


@pytest.mark.parametrize("name", ["sgl", "soma-dr-i", "ssg", "greedy"])
@pytest.mark.parametrize("r", [6, 13])
def test_trace_accounts_for_every_query(name, r):
    # every single-copy gain is positive, so greedy never stops on a zero gain
    instance = ProblemInstance(n=5, b=as_point([2, 3, 1, 4, 3]), r=r,
                               objective=weighted_concave_sqrt([7, 30, 2, 55, 91]))
    trace = []
    runner = ITERATIVE_RUNNERS[name]
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


@pytest.mark.parametrize("name, kind", [
    *((name, kind) for name in sorted(ITERATIVE_RUNNERS)
      for kind in ("linear", "sqrt", "custom")),
    # only multi-copy steps reach values above 2**53 within a test's time
    ("sgl", "linear above 2**53"), ("soma-dr-i", "linear above 2**53"),
])
def test_last_traced_value_is_the_solution_value(name, kind):
    # the trace carries the oracle's cached values, Solution.value a full evaluation
    w = [3, 14, 15, 92, 65, 35, 89]
    b, r = [2, 3, 1, 4, 3, 2, 5], 9
    if kind == "linear above 2**53":
        b, r = [2 ** 54, 3, 2 ** 54 + 1, 4, 2 ** 53 + 7, 2, 5], 2 ** 55 - 3
    objective = {"sqrt": weighted_concave_sqrt(w),
                 "custom": custom_objective(7, lambda x: float(np.sqrt(x + 1) @ w))
                 }.get(kind) or weighted_linear(w)
    instance = ProblemInstance(n=7, b=as_point(b), r=r, objective=objective)
    trace = []
    sol = ITERATIVE_RUNNERS[name](instance, AlgorithmConfig(algorithm=name, seed=11),
                                  trace=trace)
    assert trace[-1].value == sol.value
    if kind == "linear above 2**53":
        assert sol.value > 2 ** 53 and cardinality(sol.x) == r


tiny_builtin_cases = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.sampled_from([weighted_linear, weighted_concave_sqrt]),
    st.lists(st.integers(1, 100), min_size=n, max_size=n),   # weights
    st.lists(st.integers(1, 3), min_size=n, max_size=n),     # caps b
    st.integers(0, 8),                                       # budget r
    st.sampled_from([None, 0.1, 0.5]),                       # epsilon
    st.integers(0, 2 ** 32),                                 # seed
))


@pytest.mark.parametrize("name", sorted(ITERATIVE_RUNNERS))
@given(case=tiny_builtin_cases)
def test_builtin_objective_matches_its_custom_wrapper(name, case):
    # a custom objective is the scalar reference for the built-in fast paths
    make, w, b, r, eps, seed = case
    builtin = make(w)
    runs = []
    for objective in (builtin, custom_objective(len(w), builtin)):
        instance = ProblemInstance(n=len(w), b=as_point(b), r=r, objective=objective)
        trace = []
        sol = ITERATIVE_RUNNERS[name](
            instance, AlgorithmConfig(epsilon=eps, seed=seed, algorithm=name), trace=trace)
        runs.append((sol.x.tolist(), sol.value, sol.queries, sol.iterations,
                     sol.stalled, sol.timed_out, trace))
    assert runs[0] == runs[1]


def sweep_instances():
    """Wide soma-dr-i instances: equal, duplicated and spread weights, budgets
    that run out mid-pass, and caps and linear values near 2**63."""
    rng = np.random.Generator(np.random.PCG64(20240817))
    for i in range(24):
        n = int(rng.integers(1, 61))
        w = (np.full(n, 7), rng.choice([3, 40, 97], size=n), rng.integers(1, 101, size=n))[i % 3]
        b = rng.integers(1, 41, size=n)
        r = int(rng.integers(1, int(b.sum()) + 1))
        make = weighted_concave_sqrt if i % 2 else weighted_linear
        yield make(w), b, r, (None, 0.05, 0.2, 0.5)[i % 4] if n <= 20 else 0.2
    # a light element rejects every probe of up to 2**60 copies while theta is high
    yield weighted_linear([1, 100, 1]), [2 ** 60, 2 ** 56, 3], 2 ** 60, 0.25
    yield weighted_concave_sqrt([1, 100, 3]), [2 ** 62 - 1, 2 ** 55, 7], 2 ** 62 - 2, 0.3


def test_sweep_matches_the_scalar_pass(monkeypatch):
    # the custom wrapper charges nothing in a batch, so it runs the scalar pass;
    # the built-in sweep answers each pass's all-reject prefix in a batch and
    # must give the same x, value, queries, iterations and traces
    from latmax import solvers

    threshold_pass, probe, stepped, batch = (solvers._threshold_pass,
                                             CountingOracle.evaluate_stepped, _SqrtState.stepped,
                                             CountingOracle.evaluate_batch)
    # counted over the built-in runs: scalar passes, each from the element that
    # ends the charged prefix, those that commit, sqrt probes the certified bound
    # leaves undecided (a linear probe is always exact), batched probes
    seen = dict(stops=0, commits=0, undecided=0, batched=0)
    probing, builtin_run, filled = [False], [False], 0

    def counted_pass(*args):
        result = threshold_pass(*args)
        seen["stops"] += builtin_run[0]
        seen["commits"] += builtin_run[0] and result[2]
        return result

    def counted_probe(self, *args):
        probing[0] = True
        try:
            return probe(self, *args)
        finally:
            probing[0] = False

    def counted_stepped(self, e, k):
        seen["undecided"] += probing[0] and builtin_run[0]
        return stepped(self, e, k)

    def counted_batch(self, rows, *args):
        if args:  # multi-copy steps: the sweep's all-reject searches
            seen["batched"] += len(rows)
        return batch(self, rows, *args)

    monkeypatch.setattr(solvers, "_threshold_pass", counted_pass)
    monkeypatch.setattr(CountingOracle, "evaluate_stepped", counted_probe)
    monkeypatch.setattr(_SqrtState, "stepped", counted_stepped)
    monkeypatch.setattr(CountingOracle, "evaluate_batch", counted_batch)
    for builtin, b, r, eps in sweep_instances():
        runs = []
        for objective in (builtin, custom_objective(builtin.n, builtin)):
            instance = ProblemInstance(n=builtin.n, b=as_point(b), r=r, objective=objective)
            trace = []
            builtin_run[0] = objective is builtin
            sol = soma_dr_i(instance, AlgorithmConfig(epsilon=eps, algorithm="soma-dr-i"),
                            trace=trace)
            runs.append((sol.x.tolist(), sol.value, sol.queries, sol.iterations, trace))
        assert runs[0] == runs[1]
        assert runs[0][0] != [0] * builtin.n
        filled += sum(runs[0][0]) == r < sum(b)  # the budget ran out during a pass
    assert filled >= 10
    # prefixes end before commits and undecided sqrt probes, and batches carry most probes
    assert seen["batched"] > seen["stops"] >= seen["commits"] > 0
    assert seen["undecided"] > 0


def test_sweep_plans_each_probe_once_per_incumbent(monkeypatch):
    # the sweep keeps its probes' intervals on the oracle until a commit, so no
    # pass that leaves x as it was, and no charge, computes one again
    seen = set()
    computed = [0]
    charged = [0]
    incumbent = [None]
    follow, batch = CountingOracle.follow, CountingOracle.evaluate_batch

    def followed(self, x):
        incumbent[0] = x  # kept by reference, so commits step it too
        return follow(self, x)

    def counted(intervals):
        def call(self, rows, steps):
            if steps is not None:  # the sweep's probes; unit-step scans pass None
                for e, k in zip(rows.tolist(), steps.tolist()):
                    key = (tuple(incumbent[0].tolist()), e, k)
                    assert key not in seen, f"interval of {key} computed twice"
                    seen.add(key)
                computed[0] += len(rows)
            return intervals(self, rows, steps)
        return call

    def counted_batch(self, rows, *args):
        before = computed[0]
        values = batch(self, rows, *args)
        if args and args[0] is not None:  # a charge of the sweep's probes
            assert computed[0] == before
            charged[0] += len(rows)
        return values

    monkeypatch.setattr(CountingOracle, "follow", followed)
    for state in (_LinearState, _SqrtState):
        monkeypatch.setattr(state, "intervals", counted(state.intervals))
    monkeypatch.setattr(CountingOracle, "evaluate_batch", counted_batch)
    for builtin, b, r, eps in sweep_instances():
        instance = ProblemInstance(n=builtin.n, b=as_point(b), r=r, objective=builtin)
        seen.clear()  # x only grows within a run, so it names the incumbent
        soma_dr_i(instance, AlgorithmConfig(epsilon=eps, algorithm="soma-dr-i"))
    assert computed[0] > 0 and charged[0] > 0


def test_sweep_charges_one_prefix_per_pass(monkeypatch):
    # weights in no order stop a pass early and leave all-reject searches after
    # the stop; the scalar pass runs them, so a pass makes at most one charge
    from latmax import solvers

    sweep_pass, batch = solvers._sweep_pass, CountingOracle.evaluate_batch
    charges, most, total = [0], [0], [0]

    def counted_batch(self, rows, *args):
        charges[0] += bool(args) and args[0] is not None  # steps: the sweep's probes
        return batch(self, rows, *args)

    def counted_pass(*args):
        charges[0] = 0
        result = sweep_pass(*args)
        most[0], total[0] = max(most[0], charges[0]), total[0] + charges[0]
        return result

    monkeypatch.setattr(CountingOracle, "evaluate_batch", counted_batch)
    monkeypatch.setattr(solvers, "_sweep_pass", counted_pass)
    rng = np.random.Generator(np.random.PCG64(20240817))
    for make in (weighted_linear, weighted_concave_sqrt):
        for n, pivot in ((40, 2), (80, 4)):
            w = rng.integers(1, 101, size=n)
            b = rng.integers(pivot, 4 * pivot + 1, size=n)
            runs = []
            for objective in (make(w), custom_objective(n, make(w))):
                instance = ProblemInstance(n=n, b=b, r=n, objective=objective)
                trace = []
                sol = soma_dr_i(instance, trace=trace)
                runs.append((sol.x.tolist(), sol.value, sol.queries, sol.iterations, trace))
            assert runs[0] == runs[1]
    assert most[0] == 1 and total[0] > 0


def test_interleaved_runs_match_fresh_runs():
    # runs alternate between instances of equal n, budget and start point, so a
    # plan kept anywhere but on its own oracle would be read by the next run
    rng = np.random.Generator(np.random.PCG64(41))
    n, r = 40, 30
    instances = [ProblemInstance(n=n, b=np.full(n, 6), r=r, objective=make(w))
                 for make in (weighted_concave_sqrt, weighted_linear)
                 for w in (rng.integers(1, 101, size=n), rng.integers(1, 101, size=n))]

    def run(name, instance):
        trace = []
        sol = ITERATIVE_RUNNERS[name](instance, AlgorithmConfig(algorithm=name, seed=3),
                                      trace=trace)
        return sol.x.tolist(), sol.value, sol.queries, trace

    for name in ("soma-dr-i", "greedy"):
        fresh = [run(name, ProblemInstance(n=n, b=i.b, r=r,
                                           objective=custom_objective(n, i.objective)))
                 for i in instances]
        for _ in range(2):
            assert [run(name, i) for i in instances] == fresh


def test_charged_probe_that_accepts_is_an_error(monkeypatch):
    # the sweep charges only probes its bounds reject; an oracle answering one of
    # them above its bar is caught
    batch = CountingOracle.evaluate_batch

    def accepting(self, rows, steps=None, fx=None, need=None):
        values = batch(self, rows, steps, fx, need)
        return values if need is None else np.full(len(rows), math.inf)

    monkeypatch.setattr(CountingOracle, "evaluate_batch", accepting)
    instance = ProblemInstance(n=6, b=as_point([5, 5, 5, 5, 5, 5]), r=12,
                               objective=weighted_linear([90, 1, 1, 1, 1, 1]))
    with pytest.raises(RuntimeError, match="charged probe accepted"):
        soma_dr_i(instance)


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
    def test_distinct_subset(self, m, pyrandom):
        stream = _WordStream(pyrandom.getrandbits(32))
        k = pyrandom.randint(0, m)
        out = stream.pick(range(m), k)
        assert len(out) == k
        assert len(set(out)) == k
        assert set(out) <= set(range(m))

    @given(st.data())
    def test_replay_picks_pool_entries_at_the_positions(self, data):
        # sgl replays its passes straight into its pool of available elements
        m = data.draw(st.integers(0, 40))
        k = data.draw(st.integers(0, m))
        pool = data.draw(st.lists(st.integers(), min_size=m, max_size=m))
        seed = data.draw(st.integers(0, 2 ** 32))
        positions = _WordStream(seed).pick(range(m), k)
        assert len(set(positions)) == k and set(positions) <= set(range(m))
        assert _WordStream(seed).pick(pool, k) == [pool[p] for p in positions]

    def test_covers_the_pool_over_many_draws(self):
        stream, seen = _WordStream(20240817), set()
        for _ in range(200):
            seen.update(stream.pick(range(6), 2))
        assert seen == set(range(6))

    def test_stream_matches_copying_fisher_yates(self, rng):
        for trial in range(2000):
            kind = trial % 8
            if kind == 0:  # ssg scale: few irregular steps among many regular ones
                m, k = int(rng.integers(50_000, 120_000)), int(rng.integers(1000, 2001))
            elif kind == 1:  # tiny pools: most targets below k or shared
                m = int(rng.integers(1, 4))
                k = int(rng.integers(0, m + 1))
            elif kind == 2:  # k = m: every step is irregular
                m = k = int(rng.integers(1, 80))
            elif kind == 3:  # one step, irregular only when it draws 0
                m, k = int(rng.integers(1, 80)), 1
            else:
                m = int(rng.integers(1, 80)) if trial % 10 else int(rng.integers(1000, 5000))
                k = (0, m, int(rng.integers(0, m + 1)))[trial % 3]
            seed = int(rng.integers(0, 2 ** 32))
            ours, theirs = _WordStream(seed), np.random.Generator(np.random.PCG64(seed))
            assert ours.pick(range(m), k) == copying_fisher_yates(theirs, m, k).tolist()
            assert_same_next_draws(ours, theirs)


def copying_fisher_yates(gen, m, k):
    """The partial Fisher-Yates shuffle swapping entries of a copy of the pool,
    drawn by Generator.integers; entries never swapped are not stored."""
    draws = gen.integers(0, m - np.arange(k)).tolist() if k else []
    pool = {}
    for i in range(k):
        j = i + draws[i]
        pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
    return np.array([pool[i] for i in range(k)], dtype=np.int64)


def assert_same_next_draws(stream, gen):
    """The stream and the generator go on alike: a kept 32-bit half, a fresh
    64-bit word, and rejection-heavy ranges.  Runs of ranges up to 2**32 are
    drawn by ``integers``, larger ones by a one-step ``pick``."""
    highs = [7, 2 ** 40 + 3, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 32, 2 ** 62 + 1, 5] * 4
    for halves, run in itertools.groupby(highs, lambda high: high <= 2 ** 32):
        run = list(run)
        if halves:
            assert stream.integers(np.array(run)).tolist() == gen.integers(0, run).tolist()
        else:
            for m in run:
                assert stream.pick(range(m), 1) == copying_fisher_yates(gen, m, 1).tolist()


# ranges where numpy's draws change path or reject often: 1 draws nothing,
# 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of the 32-bit
# halves, 2**32 takes a half as it is, 2**32 + 1 on up take whole words, and
# 2**62 + 1 rejects about a quarter of them
half_ranges = (st.sampled_from([2, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 32])
               | st.integers(2, 50) | st.integers(2, 2 ** 32))
stream_ranges = (half_ranges | st.sampled_from([1, 2 ** 32 + 1, 2 ** 62 + 1])
                 | st.integers(1, 2 ** 62))
stream_calls = st.one_of(
    # integers takes the ranges ssg's blocks draw, 2 to 2**32; pick takes any
    st.tuples(st.just("integers"), st.lists(half_ranges, max_size=40)),
    st.tuples(st.just("pick"), stream_ranges.flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, min(m, 12))))),
)


class TestWordStream:
    @given(st.integers(0, 2 ** 64 - 1), st.lists(stream_calls, min_size=1, max_size=6))
    def test_matches_generator_integers(self, seed, calls):
        # the vector and the scalar entry, interleaved on one stream, draw what
        # Generator.integers(0, highs) draws in order, and go on alike after
        stream, gen = _WordStream(seed), np.random.Generator(np.random.PCG64(seed))
        for entry, args in calls:
            if entry == "pick":
                m, k = args
                assert stream.pick(range(m), k) == copying_fisher_yates(gen, m, k).tolist()
            else:
                highs = np.array(args, dtype=np.int64)
                got = stream.integers(highs)
                assert got.dtype == np.int64 and got.shape == highs.shape
                assert got.tolist() == gen.integers(0, highs).tolist()
        assert_same_next_draws(stream, gen)


class TestSampleSlotSets:
    def test_rows_are_sorted_copying_shuffles(self, rng):
        # one block call: each row equals the sorted reference drawn row by
        # row, and the generator ends where the reference calls end
        for trial in range(2000):
            kind = trial % 8
            if kind == 0:  # ssg scale: few irregular steps among many regular ones
                m, k = int(rng.integers(50_000, 120_000)), int(rng.integers(1000, 2001))
            elif kind == 1:  # tiny pools: most targets below k or shared
                m = int(rng.integers(2, 5))
                k = int(rng.integers(1, m))
            elif kind == 2:  # k = m - 1: nearly every step is irregular
                m = int(rng.integers(2, 80))
                k = m - 1
            elif kind == 3:  # one step, irregular only when it draws 0
                m, k = int(rng.integers(2, 80)), 1
            else:
                m = int(rng.integers(2, 80)) if trial % 10 else int(rng.integers(1000, 5000))
                k = (1, m - 1, int(rng.integers(1, m)))[trial % 3]
            rows = int(rng.integers(1, 21 if m < 1000 else 4))  # the reference loops in Python
            # shrinking pools as in ssg (the last row draws from m), or equal ones
            pools = m + np.arange(rows)[::-1] if trial % 2 else np.full(rows, m)
            seed = int(rng.integers(0, 2 ** 32))
            ours, theirs = _WordStream(seed), np.random.Generator(np.random.PCG64(seed))
            got = _sample_slot_sets(ours, pools, k)
            assert got.shape == (rows, k)
            for row, pool in zip(got.tolist(), pools.tolist()):
                assert row == np.sort(copying_fisher_yates(theirs, pool, k)).tolist()
            assert_same_next_draws(ours, theirs)

    def test_rejects_oversized_draw(self):
        # a block samples some but not all of every pool: 0 < k < min(pools)
        for k in (0, 3, 4):
            with pytest.raises(ValueError):
                _sample_slot_sets(_WordStream(0), np.array([5, 4, 3]), k)

    @pytest.mark.parametrize("top", [2 ** 32, 2 ** 32 + 1, 2 ** 59 - 1, 2 ** 59 + 2 ** 58,
                                     2 ** 62])
    def test_pools_too_large_for_sort_keys(self, top):
        # a pool above 2**32 cannot draw from a 32-bit half, so such a block is
        # drawn row by row, and a pool of 2**32 still packs its sort keys; any
        # pool gives the ordered stream
        pools = top - np.arange(3)
        ours, theirs = _WordStream(7), np.random.Generator(np.random.PCG64(7))
        got = _sample_slot_sets(ours, pools, 5)
        for row, pool in zip(got.tolist(), pools.tolist()):
            assert row == sorted(copying_fisher_yates(theirs, pool, 5).tolist())
        assert_same_next_draws(ours, theirs)
