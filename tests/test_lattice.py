"""Lattice vocabulary: points, objectives, counting oracle, checkers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import latmax as lm

points = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# point operations


def test_point_ops_examples():
    x = lm.as_point([0, 2, 1])
    assert lm.cardinality(x) == 3
    assert lm.linf(x) == 2
    assert list(lm.support(x)) == [1, 2]
    y = lm.as_point([1, 1, 3])
    assert list(lm.meet(x, y)) == [0, 1, 1]
    assert list(lm.join(x, y)) == [1, 2, 3]
    assert lm.leq(lm.meet(x, y), x) and lm.leq(lm.meet(x, y), y)
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


@given(points, points)
def test_meet_join_bounds(a, b):
    n = min(len(a), len(b))
    x, y = lm.as_point(a[:n]), lm.as_point(b[:n])
    lo, hi = lm.meet(x, y), lm.join(x, y)
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


def test_batch_matches_scalar():
    f = lm.weighted_concave_sqrt([3, 8, 60])
    pts = np.array([[0, 0, 0], [1, 2, 3], [4, 4, 4]], dtype=np.int64)
    np.testing.assert_allclose(f.batch(pts), [f(p) for p in pts])


# ---------------------------------------------------------------------------
# counting oracle


def test_oracle_counts_each_evaluation():
    f = lm.weighted_linear([5, 7])
    oracle = lm.CountingOracle(f)
    x = lm.as_point([2, 1])
    assert oracle.evaluate(x) == 17.0
    assert oracle.queries == 1
    # marginal with cached incumbent costs one query
    assert oracle.evaluate_stepped(x, 1, 2) - 17.0 == 14.0
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
    assert oracle.evaluate_stepped(x, 0, 3) == 32.0
    assert list(x) == [2, 1]


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
        fx = f(x)
        total = oracle.evaluate_stepped(x, e, k) - fx
        steps = 0.0
        y = x.copy()
        for _ in range(k):
            fy = f(y)
            steps += oracle.evaluate_stepped(y, e, 1) - fy
            y[e] += 1
        assert abs(total - steps) <= 1e-9 * max(1.0, abs(total))


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
    inst = lm.ProblemInstance(n=2, b=[2, 3], r=4, objective=f)
    assert inst.is_feasible(lm.as_point([2, 2]))
    assert not inst.is_feasible(lm.as_point([2, 3]))  # cardinality 5 > 4


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
    assert prod(x) + prod(y) < prod(lm.meet(x, y)) + prod(lm.join(x, y))


def test_checker_cap_refusal():
    f = lm.weighted_linear([1, 1, 1])
    with pytest.raises(lm.ExhaustivenessCapError):
        lm.check_monotone(f, (100, 100, 100), cap=1000)
    # never subsampled: the same objective under a big enough cap is fine
    assert lm.check_monotone(f, (3, 3, 3), cap=100)[0]


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
