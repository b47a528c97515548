"""Lattice vocabulary: points, objectives, counting oracle, checkers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latmax as lm
from latmax.lattice import (
    CUSTOM,
    WEIGHTED_CONCAVE_SQRT,
    WEIGHTED_LINEAR,
    _CustomState,
    _LinearState,
    _SqrtState,
)

points = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# point operations


def test_point_ops_examples():
    x = lm.as_point([0, 2, 1])
    assert lm.cardinality(x) == 3
    y = lm.as_point([1, 1, 3])
    assert lm.leq(np.minimum(x, y), x) and lm.leq(np.minimum(x, y), y)
    assert not lm.leq(y, x)
    assert lm.cardinality(lm.zeros(4)) == 0
    assert list(lm.unit(3, 1)) == [0, 1, 0]


def test_as_point_rejects_negative_and_bad_shape():
    with pytest.raises(ValueError):
        lm.as_point([1, -1])
    with pytest.raises(ValueError):
        lm.as_point([[1, 2]])
    with pytest.raises(ValueError):
        lm.as_point([1, 2], n=3)


@pytest.mark.parametrize("bad", [1.7, -0.5, float("nan"), float("inf"), 2.0 ** 63])
def test_non_integral_entries_are_rejected(bad):
    # each used to be truncated or cast to an arbitrary integer
    with pytest.raises(ValueError, match="lattice point entries must be integers"):
        lm.as_point([bad, 2])
    with pytest.raises(ValueError, match="weights must be integers"):
        lm.weighted_linear([bad, 99])
    with pytest.raises(ValueError, match="weights must be integers"):
        lm.weighted_concave_sqrt(np.array([bad, 99.0]))
    assert lm.as_point([3.0, 2]).tolist() == [3, 2]
    assert lm.weighted_linear([1.0, 99.0]).weights.tolist() == [1, 99]


@given(points, points)
def test_meet_join_bounds(a, b):
    n = min(len(a), len(b))
    x, y = lm.as_point(a[:n]), lm.as_point(b[:n])
    lo, hi = np.minimum(x, y), np.maximum(x, y)  # meet and join
    assert lm.leq(lo, x) and lm.leq(lo, y)
    assert lm.leq(x, hi) and lm.leq(y, hi)
    # |meet| + |join| = |x| + |y| componentwise
    assert lm.cardinality(lo) + lm.cardinality(hi) == lm.cardinality(x) + lm.cardinality(y)


# ---------------------------------------------------------------------------
# objectives


def test_weighted_linear_examples():
    f = lm.weighted_linear([5, 7])
    assert f(lm.as_point([0, 0])) == 0.0
    assert f(lm.as_point([2, 1])) == 17.0
    assert f(lm.as_point([3, 4])) == 43.0


def test_weighted_concave_sqrt_examples():
    f = lm.weighted_concave_sqrt([4, 9])
    assert f(lm.as_point([0, 0])) == 0.0
    assert f(lm.as_point([1, 1])) == pytest.approx(13.0)
    assert f(lm.as_point([4, 0])) == pytest.approx(8.0)


def test_builtin_weights_validated():
    with pytest.raises(ValueError):
        lm.weighted_linear([0, 3])
    with pytest.raises(ValueError):
        lm.weighted_linear([101])
    with pytest.raises(ValueError):
        lm.weighted_concave_sqrt([])


def test_directly_built_objectives_check_their_weights():
    # Objective(...) applies the factories' weight checks and keeps its own copy,
    # so a full evaluation and a followed oracle's probe read the same weights
    with pytest.raises(ValueError, match="must be integers"):
        lm.Objective(kind=WEIGHTED_LINEAR, n=2, weights=np.array([1.5, 2.5]))
    with pytest.raises(ValueError, match=r"\[1, 100\]"):
        lm.Objective(kind=WEIGHTED_LINEAR, n=2, weights=np.array([-5, 3]))
    a = np.array([3, 4])
    f = lm.Objective(kind=WEIGHTED_CONCAVE_SQRT, n=2, weights=a)
    a[0] = 100
    assert f(lm.as_point([1, 1])) == 7.0
    with pytest.raises(ValueError):
        f.weights[0] = 1
    linear = lm.Objective(kind=WEIGHTED_LINEAR, n=2, weights=[2, 5])
    oracle = lm.CountingOracle(linear)
    oracle.follow(lm.zeros(2))
    assert oracle.evaluate_stepped(0, 1) == linear(lm.as_point([1, 0])) == 2.0


def test_malformed_objectives_are_rejected():
    w = np.array([1, 2])
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        lm.Objective(kind=WEIGHTED_LINEAR, n=0, weights=w[:0])
    for weights in (None, w[:1]):
        with pytest.raises(ValueError, match="one weight per element"):
            lm.Objective(kind=WEIGHTED_CONCAVE_SQRT, n=2, weights=weights)
    with pytest.raises(ValueError, match="needs a callable"):
        lm.Objective(kind=CUSTOM, n=2)
    with pytest.raises(ValueError, match="unknown objective kind"):
        lm.Objective(kind="quadratic", n=2, weights=w)
    with pytest.raises(ValueError, match="n >= 2"):
        lm.coordinate_product(1)
    for make in (lambda: lm.weighted_linear([[1, 2, 3]]),
                 lambda: lm.Objective(kind=WEIGHTED_CONCAVE_SQRT, n=2, weights=[[1], [2]])):
        with pytest.raises(ValueError, match="1-D integer array"):
            make()


def test_weighted_linear_is_integer_exact():
    # large values stay exact: integer arithmetic inside, float on return
    w = np.full(50, 100, dtype=np.int64)
    f = lm.weighted_linear(w)
    x = np.full(50, 1500, dtype=np.int64)
    assert f(x) == float(50 * 100 * 1500)


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=5), points)
def test_normalization_and_monotone_steps(w, xs):
    n = min(len(w), len(xs))
    w, x = w[:n], lm.as_point(xs[:n])
    for f in (lm.weighted_linear(w), lm.weighted_concave_sqrt(w)):
        assert f(lm.zeros(n)) == 0.0
        for e in range(n):
            assert f(x + lm.unit(n, e)) >= f(x)


def test_batch_matches_scalar(rng):
    # f(p), f.batch and a followed oracle's probe of p all give the bits of the
    # one-point expression that defined each kind's value before the batch did
    def values(f, pts):
        probes = []
        for p in pts:
            e = int(np.argmax(p))
            oracle = lm.CountingOracle(f)
            oracle.follow(p - p[e] * lm.unit(p.size, e))
            probes.append(oracle.evaluate_stepped(e, int(p[e])))
        return [[v.hex() for v in vs] for vs in ([f(p) for p in pts], f.batch(pts).tolist(),
                                                 probes)]

    pts = np.array([[0, 0, 0], [1, 2, 3], [4, 4, 4], [10 ** 12, 7, 10 ** 12 + 1]],
                   dtype=np.int64)
    # batched unit-step scoring relies on weighted-linear batches being exact
    f = lm.weighted_linear([3, 8, 60])
    assert values(f, pts) == [[float(int(f.weights @ p)).hex() for p in pts]] * 3
    # exact keeps the first maximum of batch values and reports a full evaluation,
    # so a sqrt batch must give every row's value bit for bit
    f = lm.weighted_concave_sqrt([3, 8, 60])
    assert values(f, pts) == [[float(np.sqrt(p) @ f.weights).hex() for p in pts]] * 3
    for n in (1, 5, 19, 200, 750):
        f = lm.weighted_concave_sqrt(rng.integers(1, 101, size=n))
        pts = rng.integers(0, 10 ** 6, size=(40, n))
        assert values(f, pts) == [[float(np.sqrt(p) @ f.weights).hex() for p in pts]] * 3


# ---------------------------------------------------------------------------
# counting oracle


def test_oracle_counts_each_evaluation():
    f = lm.weighted_linear([5, 7])
    oracle = lm.CountingOracle(f)
    x = lm.as_point([2, 1])
    assert oracle.follow(x) == 17.0
    assert oracle.queries == 1
    # marginal with cached incumbent costs one query
    assert oracle.evaluate_stepped(1, 2) - 17.0 == 14.0
    assert oracle.queries == 2
    oracle.evaluate_batch(np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64))
    assert oracle.queries == 5


def test_oracle_dimension_mismatch():
    oracle = lm.CountingOracle(lm.weighted_linear([5, 7]))
    with pytest.raises(ValueError):
        oracle.evaluate(lm.as_point([1, 2, 3]))


def test_evaluate_stepped_leaves_point_unchanged():
    oracle = lm.CountingOracle(lm.weighted_linear([5, 7]))
    x = lm.as_point([2, 1])
    oracle.follow(x)
    assert oracle.evaluate_stepped(0, 3) == 32.0
    assert list(x) == [2, 1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_oracle_rejects_non_finite_values(bad):
    oracle = lm.CountingOracle(lm.custom_objective(3, lambda x: bad if x[2] else 1.0))
    x = lm.as_point([0, 4, 0])
    assert oracle.follow(x) == 1.0
    with pytest.raises(ValueError, match=r"\[0, 4, 1\]"):
        oracle.evaluate(lm.as_point([0, 4, 1]))
    with pytest.raises(ValueError, match=r"at \[0, 4, 2\].*element 2"):
        oracle.evaluate_stepped(2, 2)
    assert list(x) == [0, 4, 0]
    with pytest.raises(ValueError, match=r"at \[5, 0, 1\].*row 1"):
        oracle.evaluate_batch(np.array([[0, 0, 0], [5, 0, 1], [0, 0, 2]], dtype=np.int64))


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=4),
    points,
    st.integers(min_value=1, max_value=6),
)
def test_marginal_telescoping(w, xs, k):
    # sum of unit-step gains telescopes to the k-step gain, within 1e-9
    n = min(len(w), len(xs))
    w, x = w[:n], lm.as_point(xs[:n])
    e = 0
    for f in (lm.weighted_linear(w), lm.weighted_concave_sqrt(w)):
        oracle = lm.CountingOracle(f)
        fx = oracle.follow(x.copy())
        total = oracle.evaluate_stepped(e, k) - fx
        steps = 0.0
        for _ in range(k):
            fy = f(oracle.x)
            steps += oracle.evaluate_stepped(e, 1) - fy
            oracle.commit(e, 1)
        assert abs(total - steps) <= 1e-9 * max(1.0, abs(total))


followed_runs = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.sampled_from(["linear", "linear above 2**53", "sqrt", "custom"]),
    st.lists(st.integers(1, 100), min_size=n, max_size=n),                # weights
    st.lists(st.integers(0, 6), min_size=n, max_size=n),                  # start point
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=6),  # commits
))


@given(followed_runs)
def test_followed_state_matches_full_evaluations(case):
    # every cached probe equals a full evaluation of the stepped point, bit for bit
    kind, w, start, commits = case
    if kind == "linear above 2**53":  # caps near 2**55; two elements keep w @ x in int64
        w, start = w[:2], [2 ** 55 - v for v in start[:2]]
    n = len(w)
    f = {"sqrt": lm.weighted_concave_sqrt(w),
         "custom": lm.custom_objective(n, lambda x: float(np.log1p(x) @ w + x[0] * x[-1]))
         }.get(kind) or lm.weighted_linear(w)
    x = lm.as_point(start)
    expected = x.copy()
    oracle = lm.CountingOracle(f)
    assert oracle.follow(x) == f(expected)
    charged = 1
    elements = np.array([*range(n), n - 1, 0])
    for step in [None, *commits]:
        if step is not None:
            e, k = step[0] % n, step[1]
            oracle.commit(e, k)
            expected[e] += k
        assert oracle.queries == charged  # follow charges one query, commit none
        stepped = [f(expected + k * lm.unit(n, e)) for e in range(n) for k in (1, 2, 3)]
        assert [oracle.evaluate_stepped(e, k) for e in range(n) for k in (1, 2, 3)] == stepped
        assert oracle.evaluate_batch(elements, None, 0.0, -math.inf).tolist() == \
            [f(expected + lm.unit(n, e)) for e in elements.tolist()]
        charged += 3 * n + elements.size
        assert oracle.queries == charged
        # a probe given a bar at its exact gain, or one ulp either side, may answer
        # the upper end of an interval that fails the bar; an answer that passes, as
        # any passes a bar of -inf, is the exact value
        fx = f(expected)
        for (e, k), exact in zip([(e, k) for e in range(n) for k in (1, 2, 3)], stepped):
            gain = exact - fx
            for need in (gain, math.nextafter(gain, -math.inf), math.nextafter(gain, math.inf),
                         -math.inf):
                answer = oracle.evaluate_stepped(e, k, fx, need)
                charged += 1
                assert (answer - fx >= need) == (exact - fx >= need)
                assert answer == exact or answer - fx < need
                assert oracle.queries == charged
        assert oracle.x is x and x.tolist() == expected.tolist()


certified_probes = st.tuples(
    st.integers(1, 300),                                    # n
    st.integers(1, 4),                                      # distinct weights
    st.sampled_from([0, 10, 1000, 10 ** 6]),                # largest start entry
    st.integers(0, 2 ** 32 - 1),                            # seed of the arrays
    st.lists(st.tuples(st.integers(0, 299), st.integers(1, 1000)), max_size=5),  # commits
    st.lists(st.floats(-1e3, 1e3), max_size=3),             # random bars
)


@given(certified_probes)
def test_certified_sqrt_probe_decides_as_the_exact_value(case):
    # a probe given a bar may return the upper end of its planned interval, which
    # brackets the exact value; it must fail the bar as the exact value does, even
    # at the bar itself, and an answer that passes must be the exact value
    n, distinct, top, seed, commits, bars = case
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.choice(rng.integers(1, 101, size=distinct), size=n)
    x = lm.as_point(rng.integers(0, top + 1, size=n))
    f = lm.weighted_concave_sqrt(w)
    oracle = lm.CountingOracle(f)
    oracle.follow(x)
    for e, k in commits:
        oracle.commit(e % n, k)
    fx = f(x)

    def probe(*args):
        before = oracle.queries
        value = oracle.evaluate_stepped(*args)
        assert oracle.queries == before + 1
        return value

    for e in {0, n - 1, int(rng.integers(n))}:
        for k in (1, 2, int(rng.integers(1, 10 ** 4))):
            exact = probe(e, k)
            assert exact == f(x + k * lm.unit(n, e))
            charged = oracle.queries
            _, _, (low,), (high,) = oracle.plan_stepped(np.array([e]), np.array([k]))
            assert oracle.queries == charged  # planning is uncharged
            assert low <= exact <= high and probe(e, k, fx, math.inf) == high
            assert probe(e, k, fx, -math.inf) == exact
            assert high - low <= 1e-12 * exact  # narrow enough to decide most probes
            gain = exact - fx
            needs = [gain, math.nextafter(gain, -math.inf), math.nextafter(gain, math.inf),
                     gain * (1 + 1e-13), gain * (1 - 1e-13), *bars, *(gain + b for b in bars)]
            for need in needs:
                answer = probe(e, k, fx, need)
                assert (answer - fx >= need) == (exact - fx >= need)
                assert answer == exact or answer - fx < need


batched_probes = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.sampled_from(["linear", "linear above 2**53", "sqrt", "custom"]),
    st.lists(st.sampled_from([3, 40, 97]), min_size=n, max_size=n),       # duplicated weights
    st.integers(0, 2 ** 32 - 1),                                          # seed of the arrays
    st.booleans(),                                                        # probes have bars
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 60),
                       st.sampled_from(["below", "at", "above", "far"])),
             min_size=1, max_size=12),                                    # probes and bars
))


@given(batched_probes)
def test_batched_probes_match_scalar_probes(case):
    # evaluate_batch answers each probe as evaluate_stepped would, bit for bit,
    # including bars one ulp from the exact gain, where a sqrt bound is undecided
    kind, w, seed, with_bars, probes = case
    n = len(w)
    rng = np.random.Generator(np.random.PCG64(seed))
    top = 2 ** 53 if kind == "linear above 2**53" else 50  # 97 * (8 + 1) * 2**53 < 2**63
    f = {"sqrt": lm.weighted_concave_sqrt(w),
         "custom": lm.custom_objective(n, lambda x: float(np.sqrt(x + 1) @ w))
         }.get(kind) or lm.weighted_linear(w)
    oracle = lm.CountingOracle(f)
    fx = oracle.follow(lm.as_point(rng.integers(0, top + 1, size=n)))
    elements = np.array([e for e, _, _ in probes])
    steps = np.array([k for _, k, _ in probes])
    if kind == "linear above 2**53":
        steps += rng.integers(0, 2 ** 53, size=steps.size)
    needs, exact = [], []
    for e, k, bar in zip(elements.tolist(), steps.tolist(), [b for _, _, b in probes]):
        exact.append(f(oracle.x + k * lm.unit(n, e)))
        gain = exact[-1] - fx
        needs.append({"at": gain, "far": gain * rng.uniform(-2, 2),
                      "below": math.nextafter(gain, -math.inf),
                      "above": math.nextafter(gain, math.inf)}[bar])
    bars = [(fx, need) if with_bars else () for need in needs]
    scalar = [oracle.evaluate_stepped(e, k, *bar)
              for e, k, bar in zip(elements.tolist(), steps.tolist(), bars)]
    needs = np.array(needs) if with_bars else None
    before = oracle.queries
    batch = oracle.evaluate_batch(elements, steps, fx, needs)
    assert oracle.queries == before + elements.size
    exact = np.array(exact)
    if with_bars:
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in scalar]
        passed = batch - fx >= needs
        assert batch[passed].tolist() == exact[passed].tolist()  # a passing answer is exact
    else:
        assert_first_maximum_is_exact(batch, exact)


def assert_first_maximum_is_exact(answers, exact):
    """A batch given no bar is exact wherever a probe may be its maximum: the
    first argmax and its value are exact, and every other answer is exact or
    below that maximum."""
    best = int(np.argmax(exact))
    assert int(np.argmax(answers)) == best and answers[best] == exact[best]
    assert ((answers == exact) | (answers < exact[best])).all()


@pytest.mark.parametrize("kind", ["linear", "sqrt", "custom"])
def test_kept_plan_answers_its_slices_until_a_commit(kind, monkeypatch):
    # evaluate_batch reads the intervals of a prefix of the kept probes from the
    # plan; other probes, another oracle's and those after a commit are computed
    computed = []
    state = {"linear": _LinearState, "sqrt": _SqrtState, "custom": _CustomState}[kind]
    intervals = state.intervals

    def counted(self, rows, steps):
        computed.append(len(rows))
        return intervals(self, rows, steps)

    monkeypatch.setattr(state, "intervals", counted)
    w = [3, 40, 97, 40, 3]
    f = {"linear": lm.weighted_linear(w), "sqrt": lm.weighted_concave_sqrt(w),
         "custom": lm.custom_objective(5, lambda x: float(np.sqrt(x) @ w))}[kind]
    x = lm.as_point([0, 2, 1, 0, 5])
    oracle, other = lm.CountingOracle(f), lm.CountingOracle(f)
    fx = oracle.follow(x)
    other.follow(x.copy())
    rows, steps, low, high = oracle.plan_stepped(np.array([0, 0, 1, 3, 4, 4]),
                                                 np.array([4, 2, 1, 3, 2, 1]))
    assert computed == [6] and not rows.flags.writeable and not steps.flags.writeable
    assert oracle.queries == 1  # planning is uncharged
    if kind == "custom":  # a custom value has no bound
        assert low.tolist() == [-math.inf] * 6 and high.tolist() == [math.inf] * 6
    # every probe rejects, so a sqrt probe answers its upper end, a linear one its
    # exact value, which is both ends, and a custom one, never decided, its value
    needs = np.full(6, 1e9)
    answers = high if kind != "custom" else \
        np.array([f(x + k * lm.unit(5, e)) for e, k in zip(rows.tolist(), steps.tolist())])
    for part in (slice(None), slice(0, 4), slice(0, 1)):
        fresh = oracle.evaluate_batch(rows[part].copy(), steps[part].copy(), fx, needs[part])
        assert oracle.evaluate_batch(rows[part], steps[part], fx, needs[part]).tolist() \
            == answers[part].tolist() == fresh.tolist()
    assert computed == [6, 6, 4, 1]  # only the copies were computed
    # a slice past the first probe, misaligned steps, unit steps, a strided slice and
    # another oracle's plan are computed afresh
    assert oracle.evaluate_batch(rows[3:6], steps[3:6], fx, needs[3:]).tolist() == \
        answers[3:].tolist()
    oracle.evaluate_batch(rows[:2], steps[1:3], fx, needs[:2])
    oracle.evaluate_batch(rows[:2])
    oracle.evaluate_batch(rows[::2], steps[::2], fx, needs[:3])
    assert other.evaluate_batch(rows[:3], steps[:3], fx, needs[:3]).tolist() == \
        answers[:3].tolist()
    assert computed[4:] == [3, 2, 2, 3, 3] and other.plan is None
    oracle.commit(2, 1)
    assert oracle.plan is None
    moved = oracle.evaluate_batch(rows, steps, f(x), needs)
    assert computed[9:] == [6] and moved.tolist() != answers.tolist()
    # a second multi-step plan replaces the first: the kept probes are its own alone
    oracle.plan_stepped(rows, steps)
    kept = oracle.plan_stepped(rows[1:3], steps[1:3])
    assert oracle.plan is kept and computed[10:] == [6, 2]
    assert [a.tolist() for a in kept[:2]] == [[0, 1], [2, 1]] and kept[3].size == 2
    oracle.follow(x)  # a new incumbent drops the plan too
    assert oracle.plan is None


@pytest.mark.parametrize("kind", ["linear", "sqrt", "custom"])
@pytest.mark.parametrize("unit_steps", [False, True])
def test_kept_plan_answers_as_fresh_probes(kind, unit_steps):
    # the kept plan, a prefix of it and fresh copies of the same probes give equal
    # answers and charges, with no bar, a bar every probe passes and one every
    # probe fails; linear intervals are exact, so every linear answer is the value,
    # and with no bar the first maximum and its value are exact.  A plan names its
    # steps, so unit steps are planned as steps of 1
    w = [3, 5, 7]
    f = {"linear": lm.weighted_linear(w), "sqrt": lm.weighted_concave_sqrt(w),
         "custom": lm.custom_objective(3, lambda x: float(np.sqrt(x) @ w))}[kind]
    x = lm.as_point([0, 2, 1])
    oracle = lm.CountingOracle(f)
    fx = oracle.follow(x)
    rows, steps, _, _ = oracle.plan_stepped(np.array([0, 1, 1, 2]),
                                            np.array([1, 1, 1, 1] if unit_steps else [1, 2, 3, 1]))
    exact = [f(x + k * lm.unit(3, e)) for e, k in zip(rows.tolist(), steps.tolist())]
    for m in (4, 2):
        kept = (rows if m == 4 else rows[:m], steps[:m])
        fresh = tuple(a.copy() for a in kept)
        for bar in (None, -1.0, 1e9):
            bars = () if bar is None else (fx, np.full(m, bar))
            answers = []
            for probes in (kept, fresh):
                before = oracle.queries
                answers.append(oracle.evaluate_batch(*probes, *bars).tolist())
                assert oracle.queries == before + m
            assert answers[0] == answers[1]
            if bar is None:
                assert_first_maximum_is_exact(np.array(answers[0]), np.array(exact[:m]))
            if bar == -1.0 or kind == "linear":
                assert answers[0] == exact[:m]


# ---------------------------------------------------------------------------
# problem instances


def test_instance_validation():
    f = lm.weighted_linear([5, 7])
    with pytest.raises(ValueError):
        lm.ProblemInstance(n=2, b=[1, 0], r=1, objective=f)  # cap below 1
    with pytest.raises(ValueError):
        lm.ProblemInstance(n=2, b=[1, 1], r=-1, objective=f)
    with pytest.raises(ValueError):
        lm.ProblemInstance(n=3, b=[1, 1, 1], r=1, objective=f)  # dim mismatch
    with pytest.raises(ValueError, match="n >= 1"):
        lm.ProblemInstance(n=0, b=[], r=1, objective=f)
    for r in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="copy budget r must be an integer"):
            lm.ProblemInstance(n=2, b=[1, 1], r=r, objective=f)
    with pytest.raises(ValueError, match="must be integers"):
        lm.ProblemInstance(n=2, b=[1.5, 1], r=1, objective=f)
    assert lm.ProblemInstance(n=2, b=[1, 1], r=np.int64(2), objective=f).r == 2
    inst = lm.ProblemInstance(n=2, b=[2, 3], r=4, objective=f)
    assert inst.is_feasible(lm.as_point([2, 2]))
    assert not inst.is_feasible(lm.as_point([2, 3]))  # cardinality 5 > 4


def test_bool_budget_is_rejected():
    # bool is an int subclass, so True used to be stored as the budget
    f = lm.weighted_linear([5, 7])
    for r in (True, False, np.True_):
        with pytest.raises(ValueError, match="copy budget r must be an integer"):
            lm.ProblemInstance(n=2, b=[1, 1], r=r, objective=f)


def test_non_integer_dimension_is_rejected():
    # a float or bool n used to construct, and every solver then failed in
    # zeros(n) with numpy's TypeError, and instance_hash with struct.error
    for n in (1.0, 2.5, True, np.True_):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            lm.custom_objective(n, lambda x: 0.0)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            lm.Objective(kind=WEIGHTED_LINEAR, n=n, weights=[3])
        with pytest.raises(ValueError, match="dimension n must be an integer"):
            lm.ProblemInstance(n=n, b=[2], r=1, objective=lm.weighted_linear([3]))
    assert lm.custom_objective(np.int64(2), lambda x: 0.0).n == 2
    f = lm.Objective(kind=WEIGHTED_LINEAR, n=np.int64(2), weights=[3, 1])
    inst = lm.ProblemInstance(n=np.int64(2), b=[2, 1], r=1, objective=f)
    assert inst.n == 2 and lm.solve(inst, lm.AlgorithmConfig(algorithm="greedy")).value == 3.0


def test_linear_instance_beyond_int64_is_rejected():
    # min(w . b, max(w) * r) bounds every feasible value; from 2**63 on, int64 wraps
    # (weighted_linear([100, 3]) at [2**62, 5] evaluates to 15.0)
    f = lm.weighted_linear([100, 3])
    with pytest.raises(ValueError, match="overflow int64"):
        lm.ProblemInstance(n=2, b=[2 ** 62, 5], r=2 ** 62 + 5, objective=f)
    with pytest.raises(ValueError, match="overflow int64"):
        lm.ProblemInstance(n=1, b=[2 ** 62], r=2 ** 62, objective=lm.weighted_linear([2]))
    edge = lm.ProblemInstance(n=1, b=[2 ** 63 - 1], r=2 ** 63 - 1,
                              objective=lm.weighted_linear([1]))
    assert lm.soma_dr_i(edge).value == float(2 ** 63 - 1)
    # either factor of the bound may be the small one
    small_r = lm.ProblemInstance(n=2, b=[2 ** 62, 5], r=7, objective=f)
    assert lm.soma_dr_i(small_r).value == 700.0
    small_b = lm.ProblemInstance(n=2, b=[2 ** 56, 5], r=2 ** 62, objective=f)
    assert lm.soma_dr_i(small_b).value == float(100 * 2 ** 56 + 15)
    # max(w) * min(|b|_1, r) reaches 2**63 here, but w . b = 2**62 + 100 does not
    wide = lm.ProblemInstance(n=2, b=[1, 2 ** 62], r=2 ** 62 + 1,
                              objective=lm.weighted_linear([100, 1]))
    assert lm.soma_dr_i(wide).value == float(2 ** 62 + 100)
    # sqrt values are floats and have no such limit
    lm.ProblemInstance(n=2, b=[2 ** 62, 5], r=2 ** 62 + 5,
                       objective=lm.weighted_concave_sqrt([100, 3]))


def test_total_availability_beyond_int64_is_rejected():
    # an int64 |b|_1 would wrap to -2**62 here, and the threshold solvers'
    # box shortcut r >= |b|_1 would return x = b, far over the budget
    for b in ([2 ** 62] * 3, [2 ** 63 - 1, 1], [2 ** 62, 2 ** 62]):
        with pytest.raises(ValueError, match="total availability"):
            lm.ProblemInstance(n=len(b), b=b, r=5,
                               objective=lm.weighted_concave_sqrt([1] * len(b)))
    widest = lm.ProblemInstance(n=3, b=[2 ** 62, 2 ** 61, 2 ** 61 - 1], r=5,
                                objective=lm.weighted_concave_sqrt([1, 2, 3]))
    assert lm.cardinality(widest.b) == 2 ** 63 - 1
    for sol in (lm.soma_dr_i(widest), lm.sgl(widest, lm.AlgorithmConfig(seed=1))):
        assert widest.is_feasible(sol.x) and lm.cardinality(sol.x) == 5


def test_instance_and_objective_keep_their_own_arrays():
    b = np.array([2, 3], dtype=np.int64)
    w = np.array([5, 7], dtype=np.int64)
    inst = lm.ProblemInstance(n=2, b=b, r=4, objective=lm.weighted_linear(w))
    sqrt = lm.weighted_concave_sqrt(w)
    b[:] = 9
    w[:] = 1
    assert list(inst.b) == [2, 3]
    assert inst.objective(lm.as_point([1, 1])) == 12.0
    assert sqrt(lm.as_point([4, 0])) == 10.0
    with pytest.raises(ValueError):
        inst.b[0] = 1
    with pytest.raises(ValueError):
        inst.objective.weights[0] = 1


# ---------------------------------------------------------------------------
# structure checkers


def test_monotone_checker_accepts_builtins():
    ok, cex = lm.check_monotone(lm.weighted_linear([5, 7]), (3, 3))
    assert ok and cex is None
    ok, cex = lm.check_monotone(lm.weighted_concave_sqrt([4, 9]), (3, 3))
    assert ok and cex is None


def test_monotone_checker_rejects_decreasing():
    neg = lm.custom_objective(2, lambda v: -float(v.sum()))
    ok, cex = lm.check_monotone(neg, (1, 1))
    assert not ok
    x, y = cex
    assert list(x) == [0, 0] and list(y) == [1, 0]
    assert neg(y) < neg(x)  # genuine violation


def test_dr_checker_accepts_builtins():
    assert lm.check_dr_submodular(lm.weighted_linear([5, 7]), (3, 3))[0]
    assert lm.check_dr_submodular(lm.weighted_concave_sqrt([4, 9]), (3, 3))[0]


def test_dr_checker_rejects_product():
    prod = lm.coordinate_product(2)
    ok, cex = lm.check_dr_submodular(prod, (2, 2))
    assert not ok
    x, y, e = cex
    assert list(x) == [0, 0] and list(y) == [0, 1] and e == 0
    # verify against the pairwise definition directly
    n = 2
    gain_x = prod(x + lm.unit(n, e)) - prod(x)
    gain_y = prod(y + lm.unit(n, e)) - prod(y)
    assert lm.leq(x, y) and gain_x < gain_y


def test_lattice_checker_accepts_builtins():
    assert lm.check_lattice_submodular(lm.weighted_linear([5, 7]), (2, 2))[0]
    assert lm.check_lattice_submodular(lm.weighted_concave_sqrt([4, 9]), (2, 2))[0]


def test_lattice_checker_rejects_product():
    prod = lm.coordinate_product(2)
    ok, cex = lm.check_lattice_submodular(prod, (1, 1))
    assert not ok
    x, y = cex
    assert list(x) == [1, 0] and list(y) == [0, 1]
    assert prod(x) + prod(y) < prod(np.minimum(x, y)) + prod(np.maximum(x, y))


def test_checker_cap_refusal():
    f = lm.weighted_linear([1, 1, 1])
    # 101**3 points exceed the fixed cap of 100,000; the checkers refuse
    # rather than subsample, and a box under the cap is certified
    for check in (lm.check_monotone, lm.check_dr_submodular, lm.check_lattice_submodular):
        with pytest.raises(lm.ExhaustivenessCapError, match="100000"):
            check(f, (100, 100, 100))
        assert check(f, (3, 3, 3)) == (True, None)


def test_dr_implies_lattice_submodular(rng):
    # checked on both built-ins over random small boxes
    for _ in range(50):
        n = int(rng.integers(1, 4))
        w = rng.integers(1, 101, size=n)
        box = rng.integers(1, 4, size=n)
        for f in (lm.weighted_linear(w), lm.weighted_concave_sqrt(w)):
            dr_ok, _ = lm.check_dr_submodular(f, box)
            assert dr_ok
            lat_ok, _ = lm.check_lattice_submodular(f, box)
            assert lat_ok
    # and the planted non-DR product fails both on a shared box
    prod = lm.coordinate_product(2)
    assert not lm.check_dr_submodular(prod, (2, 2))[0]
    assert not lm.check_lattice_submodular(prod, (2, 2))[0]
