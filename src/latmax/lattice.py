"""Core vocabulary for optimization on the bounded integer lattice.

Points live in Z_+^n and are represented as 1-D numpy int64 arrays.  The
module provides point helpers, black-box objective functions with a
query-counting wrapper, and exhaustive checkers for the structural
properties (monotonicity, diminishing returns, lattice submodularity) that
the solvers in :mod:`latmax.solvers` rely on.

Each objective kind is one private class: :class:`_LinearState`,
:class:`_SqrtState` and :class:`_CustomState`.  A kind's class validates an
:class:`Objective` of its kind, defines its values once, over an (m, n)
array of points, and keeps the cached state from which the wrapper,
:class:`CountingOracle`, answers the probes of a followed incumbent.  A new
kind is one such class, one ``_KINDS`` entry and a factory, with no flag.
Every full evaluation, the oracle's and the checkers' among them, is
:meth:`Objective.batch`, which rejects any array but an (m, n) one; the
kind's class checks its points and values where it makes the values, so a
sqrt point with a negative entry, or a NaN or infinite custom value, raises
``ValueError``.

The wrapper charges every query and answers every probe by one rule: its
exact value wherever the answer can change the caller's decision, that is,
where the probe may clear the bar the caller gives or, in a batch given no
bar, where it may be the batch's largest value; elsewhere the certified
upper end of its value, which decides as the exact value would.  It may keep
one plan of probes with their intervals, an uncharged cache that it reads
only when it is handed the kept arrays themselves, whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Exhaustive checkers refuse boxes with more than this many points.
CHECKER_CAP = 100_000

# Absolute slack used when comparing float marginals inside the checkers.
# Sums of square roots can differ by a few ulps depending on the order of
# accumulation; genuine violations of the checked inequalities are far
# larger than this for any objective built here.
CHECKER_TOL = 1e-9


class ExhaustivenessCapError(ValueError):
    """An exhaustive enumeration was requested over too many points."""


# ---------------------------------------------------------------------------
# lattice points


def _integers(values, what: str) -> np.ndarray:
    """values as an int64 array; a fractional, NaN, infinite or oversized entry raises."""
    a = np.asarray(values)
    if a.dtype.kind not in "biu":
        f = a.astype(np.float64)
        if not (np.all(np.abs(f) < 2.0 ** 63) and np.all(f == np.trunc(f))):  # NaN fails too
            raise ValueError(f"{what} must be integers, got {a.tolist()}")
    return a.astype(np.int64, copy=False)


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_point(values, n: Optional[int] = None) -> np.ndarray:
    """Coerce to a 1-D int64 point and validate integrality, nonnegativity (and length)."""
    x = _integers(values, "lattice point entries")
    if x.ndim != 1:
        raise ValueError(f"lattice point must be 1-D, got shape {x.shape}")
    if n is not None and x.size != n:
        raise ValueError(f"lattice point has {x.size} entries, expected {n}")
    if x.size and int(x.min()) < 0:
        raise ValueError("lattice point entries must be nonnegative")
    return x


def _read_only_copy(a: np.ndarray) -> np.ndarray:
    """A private copy that later writes by the caller, or to it, cannot change."""
    a = a.copy()
    a.flags.writeable = False
    return a


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def unit(n: int, e: int) -> np.ndarray:
    """The e-th standard unit point 1_e."""
    v = zeros(n)
    v[e] = 1
    return v


def cardinality(x: np.ndarray) -> int:
    """l1 norm of a nonnegative point: the total number of copies held."""
    return int(x.sum())


def leq(x: np.ndarray, y: np.ndarray) -> bool:
    """Componentwise order x <= y."""
    return bool((x <= y).all())


# ---------------------------------------------------------------------------
# objectives

WEIGHTED_LINEAR = "weighted-linear"
WEIGHTED_CONCAVE_SQRT = "weighted-concave-sqrt"
CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class Objective:
    """Black-box value function f: Z_+^n -> R.

    Built-in kinds are normalized (f(0) = 0), monotone, and have diminishing
    returns.  ``weighted-linear`` evaluates the weighted sum in integer
    arithmetic and converts to float only on return, so its values are exact.
    A ``custom`` objective wraps an arbitrary callable and carries no
    structural guarantees; the callable is given a read-only point, which it
    must not keep.  A built-in objective keeps a read-only copy of its
    weights, which must be integers in [1, 100].  The kind's class in
    ``_KINDS`` validates the objective and computes its values.
    """

    kind: str
    n: int
    weights: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if not _is_integer(self.n):
            raise ValueError(f"objective dimension must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("objective dimension must be >= 1")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        _KINDS[self.kind].check(self)

    def __call__(self, x: np.ndarray) -> float:
        return float(self.batch(np.asarray(x)[None])[0])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an (m, n) array of points, one float per row.

        Every full evaluation comes here.  Any other shape raises
        ``ValueError``, with one message for every kind; the kind's class
        checks the points and values it is given and makes.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.n:
            raise ValueError(f"points have shape {points.shape}, objective expects (m, {self.n})")
        return _KINDS[self.kind].batch(self, points)


def weighted_linear(weights) -> Objective:
    """f(x) = sum_e w_e * x_e (modular)."""
    return Objective(kind=WEIGHTED_LINEAR, n=np.size(weights), weights=weights)


def weighted_concave_sqrt(weights) -> Objective:
    """f(x) = sum_e w_e * sqrt(x_e); strictly concave per coordinate."""
    return Objective(kind=WEIGHTED_CONCAVE_SQRT, n=np.size(weights), weights=weights)


def custom_objective(n: int, fn: Callable[[np.ndarray], float]) -> Objective:
    return Objective(kind=CUSTOM, n=n, fn=fn)


def coordinate_product(n: int) -> Objective:
    """f(x) = x_0 * x_1: monotone but deliberately NOT diminishing-returns.

    Adding a copy of element 0 becomes more valuable as x_1 grows, so this
    function fails check_dr_submodular and check_lattice_submodular; it is
    shipped as a known-bad input for validating the checkers.
    """
    if n < 2:
        raise ValueError("coordinate_product needs n >= 2")
    return Objective(kind=CUSTOM, n=n, fn=lambda x: float(int(x[0]) * int(x[1])))


# ---------------------------------------------------------------------------
# problem instances


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Maximize objective(x) subject to x <= b componentwise and |x|_1 <= r.

    b holds per-element availability caps (every b_e >= 1) and r is the total
    copy budget, in [0, 2**63).  Feasible points form a finite sublattice of Z_+^n.
    """

    n: int
    b: np.ndarray
    r: int
    objective: Objective

    def __post_init__(self):
        if not _is_integer(self.n):
            raise ValueError(f"instance dimension n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("instance needs n >= 1")
        object.__setattr__(self, "b", _read_only_copy(as_point(self.b, n=self.n)))
        if int(self.b.min()) < 1:
            raise ValueError("every availability cap b_e must be >= 1")
        if not _is_integer(self.r):
            raise ValueError(f"copy budget r must be an integer, got {self.r!r}")
        if not 0 <= self.r < 2 ** 63:  # r is an int64 cardinality too
            raise ValueError(f"copy budget r must be in [0, 2**63), got {self.r}")
        if self.objective.n != self.n:
            raise ValueError("objective dimension does not match the instance")
        caps = self.b.tolist()
        total = sum(caps)
        if total >= 2 ** 63:  # int64 cardinalities, |b|_1 among them, must not wrap
            raise ValueError(f"total availability |b|_1 = {total} overflows int64")
        # min(w . b, max(w) * r) bounds every feasible value, which a float64 must hold
        # exactly; it is summed only where its bound max(w) * min(|b|_1, r) reaches 2**53
        w, r = self.objective.weights, int(self.r)
        if self.objective.kind == WEIGHTED_LINEAR and int(w.max()) * min(total, r) >= 2 ** 53:
            w = w.tolist()
            top = min(sum(we * be for we, be in zip(w, caps)), max(w) * r)
            if top >= 2 ** 53:
                raise ValueError(f"weighted-linear values up to {top} are not exact in float64 "
                                 "(min(w . b, max(w) * r) must be below 2**53)")

    def is_feasible(self, x: np.ndarray) -> bool:
        return x.shape[0] == self.n and bool((x >= 0).all()) and leq(x, self.b) \
            and cardinality(x) <= self.r


# ---------------------------------------------------------------------------
# counting oracle


class CountingOracle:
    """Wraps an objective, counts every evaluation and tracks an incumbent.

    One oracle per solver run; every query is charged inside ``evaluate``,
    ``evaluate_stepped`` or ``evaluate_batch``, one per point.  A full
    evaluation is a charge and the objective's batch value, which checks the
    points' width and its own values: ``evaluate`` is the one-row case of
    ``evaluate_batch`` on an (m, n) array of points.  A solver ``follow``s its
    incumbent x and ``commit``s each step, for free, so a probe of x + k * 1_e
    is answered from ``state``, an instance of the objective kind's class made
    at ``follow``.  The oracle alone keeps the incumbent's f(x) and |x|_1, as
    ``fx`` and ``card``: ``follow`` sets them, and ``commit`` takes the new
    f(x) from the caller, the exact value of the probe that chose the step.
    :class:`_LinearState` answers in O(1) and exactly, :class:`_SqrtState`
    bit-identically to a full evaluation, and :class:`_CustomState` calls the
    objective.  A probe given the bar its gain over ``fx`` must clear answers
    the upper end of an O(1) certified interval around its value when even
    that end fails the bar, so a sqrt probe takes the O(n) dot product only
    when it may pass; any answer that passes is exact.
    ``evaluate_batch`` answers a list of probes as the same
    ``evaluate_stepped`` calls would, by the same rule applied to the kind's
    vectorized intervals.  A list given no bar is a unit-step scan that keeps
    its first maximum: its bar is the largest lower end, so a probe is exact
    wherever it may be the largest value.  A custom probe's interval is
    unbounded, so it is always exact.  ``plan_stepped`` keeps one list of
    probes and their intervals, uncharged, until the next plan or commit:
    ``evaluate_batch`` handed the kept arrays themselves answers from the kept
    intervals, so a solver that plans each incumbent's probes once and charges
    them whole computes each interval once per incumbent; any other list, a
    slice of the plan included, is computed afresh.  A NaN or infinite custom
    value raises ``ValueError`` naming the point, from the objective.
    """

    # x: the followed incumbent; xs: x as a list of Python ints, the one mirror
    # the solvers and the kind state read; fx and card: f(x) and |x|_1; state:
    # the kind class's state for x.  plan: (rows, steps, low, high) kept by
    # plan_stepped for the followed x, or None.
    __slots__ = ("objective", "queries", "x", "xs", "fx", "card", "plan", "state")

    def __init__(self, objective: Objective):
        self.objective = objective
        self.queries = 0
        self.plan = None

    def evaluate(self, x: np.ndarray) -> float:
        """f(x) in one query: the one-row case of :meth:`evaluate_batch`."""
        return float(self.evaluate_batch(x[None])[0])

    def follow(self, x: np.ndarray) -> float:
        """f(x) in one query; x, kept by reference, is the incumbent from here on.

        The incumbent may change only through :meth:`commit`, which keeps the
        cached state in step with it; a write to x from outside is not seen.
        """
        value = self.evaluate(x)
        self.x, self.xs, self.plan = x, x.tolist(), None
        self.fx, self.card = value, cardinality(x)
        self.state = _KINDS[self.objective.kind](self.objective, x, self.xs)
        return value

    def commit(self, e: int, k: int, value: float) -> None:
        """Step the followed incumbent to x + k * 1_e, whose f is value; charges no query.

        value is the exact f(x + k * 1_e), as the probe that chose the step
        returned it, and becomes fx.  x and xs are stepped before the kind
        state, which reads them.  Drops the kept plan, whose intervals were
        for the old x.
        """
        self.x[e] += k
        self.xs[e] += k
        self.fx, self.card, self.plan = value, self.card + k, None
        self.state.commit(e, k)

    def evaluate_stepped(self, e: int, k: int, need: Optional[float] = None) -> float:
        """f(x + k * 1_e) for the followed x in one query; x is left unchanged.

        Given need, a probe whose certified upper end already fails
        value - fx >= need returns that end instead.  Rounding is monotone,
        so the caller's float test against fx fails on it as it would on the
        exact value; an answer that passes the test is the exact value.
        """
        self.queries += 1
        return self.state.probe(e, k, self.fx, need)

    def evaluate_batch(self, rows: np.ndarray, steps: Optional[np.ndarray] = None,
                       need=None) -> np.ndarray:
        """One query per row: f of each (m, n) point, or of x + k * 1_e for each listed e.

        Listed elements are probed as :meth:`evaluate_stepped` probes them,
        answer for answer: steps (k, or None for unit steps) aligns with the
        elements, and need is one bar for every probe or one bar per probe; a
        NaN bar decides nothing; a bar is tested against fx.  With no bar
        (need None), the bar is the scan's own: f(x) taken as 0 and need as
        the largest lower end, so a probe whose upper end lies below
        another's lower end, and so cannot be the largest value, answers
        that upper end, and the first maximum and its value are exact.
        Given the kept plan's rows and steps themselves (``rows is plan[0]
        and steps is plan[1]``), the intervals are read from the plan; those
        of any other probes, a slice or copy of the plan included, come from
        the kind state.  Where the kind's intervals are exact (one array as
        both ends, kept or not) they are the values; otherwise a probe whose
        upper end fails its bar answers that end, and every other probe the
        kind state's exact value.  An (m, n) array is charged and handed to
        :meth:`Objective.batch`, which checks its width and its values.
        """
        if rows.ndim == 1:
            self.queries += len(rows)
            plan = self.plan
            kept = plan is not None and rows is plan[0] and steps is plan[1]
            low, high = plan[2:] if kept else self.state.intervals(rows, steps, self.fx)
            values = high.copy()
            if low is high:
                return values
            fx = self.fx
            if need is None:
                fx, need = 0.0, low.max(initial=-math.inf)
            undecided = np.flatnonzero(~(high - fx < need))
            if undecided.size:
                ks = [1] * undecided.size if steps is None else steps[undecided].tolist()
                values[undecided] = [self.state.stepped(e, k)
                                     for e, k in zip(rows[undecided].tolist(), ks)]
            return values
        self.queries += len(rows)
        return self.objective.batch(rows)

    def plan_stepped(self, rows: np.ndarray, steps: np.ndarray):
        """Keep probes of x + k * 1_e and their intervals, in place of any kept
        before, until the next plan or commit; uncharged.

        Returns the kept (rows, steps, low, high), read-only: the probes, and
        the low and high ends of each probe's value: one array for a linear
        objective, certified ends for a sqrt one, and -inf and inf for a
        custom one.  :meth:`evaluate_batch` handed the kept rows and steps
        themselves reads their intervals instead of computing them again; a
        slice of them is computed afresh, like any other probes.
        """
        plan = (rows.copy(), steps.copy(), *self.state.intervals(rows, steps, self.fx))
        for a in plan:
            a.flags.writeable = False
        self.plan = plan
        return plan


# ---------------------------------------------------------------------------
# objective kinds
#
# One class per kind.  check(objective) validates an Objective of the kind, and
# batch(objective, points) gives its values, one float per row of an (m, n)
# array whose width Objective.batch has checked: the kind's one value
# definition, which checks the points and values the kind can get wrong and
# which Objective.__call__ takes as a one-row batch.  An instance is the
# followed state, made by follow as cls(objective, x, xs).  The oracle's
# commit(e, k, value) steps x and xs, takes value, the exact f(x + k * 1_e)
# that the probe which chose the step returned, as its fx, and then calls the
# state's commit(e, k), which steps only what the state caches.  The oracle
# keeps f(x) and hands it, as fx, to the state's probe and intervals.  Which
# probes need their exact value is decided in two places, by one rule:
# - probe(e, k, fx, need) answers evaluate_stepped, and the kind decides its
#   single probe: the exact value, or, given a bar need, the upper end of an
#   interval that fails value - fx >= need;
# - intervals(rows, steps, fx) gives the (low, high) ends of each probe's value
#   for plan_stepped and evaluate_batch, one array as both ends where they are
#   exact, and the oracle decides from them which probes of a list need
#   stepped(e, k), the exact value.


def _check_weights(objective: Objective) -> None:
    """A built-in kind's check: one integer weight in [1, 100] per element,
    kept as a read-only copy."""
    if objective.weights is None or np.size(objective.weights) != objective.n:
        raise ValueError("built-in objective needs one weight per element")
    w = _integers(objective.weights, "weights")
    if w.ndim != 1:  # n >= 1 weights, so never empty
        raise ValueError("weights must be a non-empty 1-D integer array")
    if int(w.min()) < 1 or int(w.max()) > 100:
        raise ValueError("built-in objective weights must lie in [1, 100]")
    object.__setattr__(objective, "weights", _read_only_copy(w))


class _LinearState:
    """weighted-linear: the exact int f(x), so every probe is exact and O(1).

    Every feasible value is below 2**53 (:class:`ProblemInstance`), so the
    int64 values and intervals are exact, and so is each float64 value the
    oracle returns; each interval is one value.
    """

    check = staticmethod(_check_weights)
    # exact: f(x) as an int, which keeps probes exact above 2**53 when the
    # oracle is used directly; weights and ws: w as an int array and as Python ints
    __slots__ = ("exact", "weights", "ws")

    @staticmethod
    def batch(objective: Objective, points: np.ndarray) -> np.ndarray:
        return (points @ objective.weights).astype(np.float64)

    def __init__(self, objective: Objective, x: np.ndarray, xs: list):
        self.weights = objective.weights
        self.ws = self.weights.tolist()
        self.exact = int(self.weights @ x)

    def commit(self, e: int, k: int) -> None:
        self.exact += self.ws[e] * k

    def probe(self, e: int, k: int, fx, need) -> float:
        return float(self.exact + self.ws[e] * k)

    def intervals(self, rows: np.ndarray, steps: Optional[np.ndarray], fx):
        gains = self.weights[rows]
        if steps is not None:
            gains = gains * steps
        values = (gains + self.exact).astype(np.float64)
        return values, values


class _SqrtState:
    """weighted-concave-sqrt: sqrt(x), so a probe swaps one root and takes the
    dot product of a full evaluation, or, given a bar that the upper end of an
    O(1) certified interval around the value fails, returns that end.

    The scalar probe and the vector intervals run the same float operations
    in the same order, so a batch answers as the same probes would.
    """

    check = staticmethod(_check_weights)
    # x and xs: the followed x and the oracle's list mirror of it; roots and
    # weights: sqrt(x) and w as float arrays, for the dot product; rs and ws:
    # the same as Python floats, for the O(1) probe; tol scales the certified
    # interval.  f(x) is the oracle's fx, as the dot product gives it.
    __slots__ = ("x", "xs", "roots", "weights", "rs", "ws", "tol")

    @staticmethod
    def batch(objective: Objective, points: np.ndarray) -> np.ndarray:
        """One dot product per row, as a probe takes it, not a matrix-vector
        product, whose BLAS kernel may sum in another order; a point with a
        negative entry, which has no real root, raises ValueError."""
        if points.min(initial=0) < 0:
            raise ValueError("weighted-concave-sqrt points must be nonnegative")
        return np.vecdot(np.sqrt(points), objective.weights.astype(np.float64))

    def __init__(self, objective: Objective, x: np.ndarray, xs: list):
        self.x, self.xs = x, xs
        self.roots = np.sqrt(x)
        self.weights = objective.weights.astype(np.float64)
        self.rs, self.ws = self.roots.tolist(), self.weights.tolist()
        # Certified interval.  A float dot product of n terms, in any order
        # and with or without FMA, is within n*u/(1 - n*u) * sum|terms| of
        # the real sum of its terms, u = 2**-53 (Higham, Accuracy and
        # Stability of Numerical Algorithms, 3.1).  The terms are w_i times
        # roots rounded once or twice, so the followed f(x) and the stepped
        # value lie within (n + 2) * u times F and F + D of their real values
        # F and F + D; D = w_e * (sqrt(x_e + k) - sqrt(x_e)) in O(1) is within
        # 4 * u * (F + D), and f(x) + D rounds by u * (F + D) more.  The
        # stepped value thus lies within (2n + 9) * u * (F + D) of the O(1)
        # estimate, and B = 4 * (n + 4) * u * (f(x) + |D|) covers that twice.
        self.tol = 4 * (x.size + 4) * 2.0 ** -53

    def commit(self, e: int, k: int) -> None:
        """Swap in the stepped root; the new f(x) is the oracle's committed value."""
        self.rs[e] = self.roots[e] = math.sqrt(self.xs[e])

    def probe(self, e: int, k: int, fx: float, need: Optional[float]) -> float:
        if need is not None:
            gain = self.ws[e] * (math.sqrt(self.xs[e] + k) - self.rs[e])
            high = fx + gain + self.tol * (fx + abs(gain))
            if high - fx < need:
                return high
        return self.stepped(e, k)

    def intervals(self, rows: np.ndarray, steps: Optional[np.ndarray], fx: float):
        """(low, high) of each probe; high by :meth:`probe`'s float operations in its order."""
        stepped = self.x[rows] + (1 if steps is None else steps)
        gain = self.weights[rows] * (np.sqrt(stepped) - self.roots[rows])
        value = fx + gain
        slack = self.tol * (fx + np.abs(gain))
        return value - slack, value + slack

    def stepped(self, e: int, k: int) -> float:
        """The exact f(x + k * 1_e), uncharged: the dot product with one root swapped."""
        roots = self.roots
        root, roots[e] = roots[e], math.sqrt(self.xs[e] + k)
        value = float(roots @ self.weights)
        roots[e] = root
        return value


class _CustomState:
    """custom: no cached value; a probe calls the objective at a stepped copy
    of x.  The one kind whose values can be NaN or infinite: :meth:`batch`
    checks each value as it makes it."""

    __slots__ = ("objective", "x")

    @staticmethod
    def check(objective: Objective) -> None:
        if objective.fn is None:
            raise ValueError("custom objective needs a callable")

    @staticmethod
    def batch(objective: Objective, points: np.ndarray) -> np.ndarray:
        """One call of fn per row, each given a read-only view of its point; a
        NaN or infinite value raises ValueError naming its point, and its row
        in a batch of more than one."""
        points = points.view()
        points.flags.writeable = False
        values = np.empty(len(points))
        for row, point in enumerate(points):
            values[row] = value = float(objective.fn(point))
            if not math.isfinite(value):
                where = f" (row {row} of the batch)" if len(points) > 1 else ""
                raise ValueError(f"objective returned {value} at {point.tolist()}{where}")
        return values

    def __init__(self, objective: Objective, x: np.ndarray, xs: list):
        self.objective, self.x = objective, x

    def commit(self, e: int, k: int) -> None:
        pass

    def intervals(self, rows: np.ndarray, steps: Optional[np.ndarray], fx):
        """(-inf, inf) for every probe: a custom value has no certified bound."""
        return np.full(len(rows), -math.inf), np.full(len(rows), math.inf)

    def stepped(self, e: int, k: int, fx=None, need=None) -> float:
        """The exact f(x + k * 1_e), uncharged; no bar decides a custom probe."""
        point = self.x.copy()
        point[e] += k
        return self.objective(point)

    probe = stepped


_KINDS = {WEIGHTED_LINEAR: _LinearState, WEIGHTED_CONCAVE_SQRT: _SqrtState,
          CUSTOM: _CustomState}


# ---------------------------------------------------------------------------
# exhaustive structure checkers
#
# All three checkers enumerate the full box [0, box] and verify the unit-step
# form of each property.  On a product of chains the unit-step conditions are
# equivalent to the pairwise definitions (any comparable pair is connected by
# unit steps, and any diamond decomposes into single-coordinate exchanges),
# so a returned counterexample is always a genuine violating pair and a True
# result certifies the property over the whole box.  The checkers refuse,
# rather than subsample, when the box exceeds the point cap.  An axis where
# the box is 0 yields empty differences, so it needs no special case.


def _box_table(objective: Objective, box, pad: int = 1):
    """Validate box, refuse it above CHECKER_CAP points, and tabulate f on it.

    Returns (box, table) where table[z] = f(z) for every z <= box + pad - 1;
    :meth:`Objective.batch` makes the table, so a non-finite value raises.
    """
    box = as_point(box, n=objective.n)
    points = math.prod(int(v) + 1 for v in box.tolist())
    if points > CHECKER_CAP:
        raise ExhaustivenessCapError(
            f"box holds {points} points, which exceeds the cap of {CHECKER_CAP}; "
            "refusing to subsample an exhaustive check"
        )
    shape = tuple(int(v) + pad for v in box.tolist())
    pts = np.indices(shape).reshape(len(shape), -1).T
    return box, objective.batch(np.ascontiguousarray(pts)).reshape(shape)


def check_monotone(objective: Objective, box):
    """Exhaustively verify f(x) <= f(y) for all x <= y inside the box.

    Returns (True, None) or (False, (x, y)) where (x, y) is the first
    violating unit step in (axis, lexicographic) order.  A NaN or infinite
    value in the box raises ValueError naming its point.
    """
    box, table = _box_table(objective, box)
    n = box.size
    for e in range(n):
        bad = np.diff(table, axis=e) < -CHECKER_TOL
        if bad.any():
            z = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x = np.array(z, dtype=np.int64)
            return False, (x, x + unit(n, e))
    return True, None


def check_dr_submodular(objective: Objective, box):
    """Exhaustively verify diminishing returns on the box.

    The property checked is f(x + 1_e) - f(x) >= f(y + 1_e) - f(y) for all
    x <= y <= box and every coordinate e.  Returns (True, None) or
    (False, (x, y, e)) with a genuine violating triple.  A NaN or infinite
    value in [0, box + 1] raises ValueError naming its point.
    """
    # values on [0, box + 1] so single-copy gains exist everywhere on the box
    box, table = _box_table(objective, box, pad=2)
    n = box.size
    for e in range(n):
        # gain of +1_e on [0, box]
        gain = np.diff(table, axis=e)[tuple(slice(0, v + 1) for v in box.tolist())]
        for ep in range(n):
            bad = np.diff(gain, axis=ep) > CHECKER_TOL  # gain at z + 1_ep minus gain at z
            if bad.any():
                z = np.unravel_index(int(np.argmax(bad)), bad.shape)
                x = np.array(z, dtype=np.int64)
                return False, (x, x + unit(n, ep), e)
    return True, None


def check_lattice_submodular(objective: Objective, box):
    """Exhaustively verify f(x) + f(y) >= f(x meet y) + f(x join y) on the box.

    Meet and join are the componentwise minimum and maximum.  Returns
    (True, None) or (False, (x, y)) where (x, y) is an incomparable violating
    pair.  A NaN or infinite value in the box raises ValueError naming its
    point.
    """
    box, table = _box_table(objective, box)
    n = box.size
    for e in range(n):
        for ep in range(e + 1, n):
            # f(z + 1_e + 1_ep) - f(z + 1_e) - f(z + 1_ep) + f(z)
            bad = np.diff(np.diff(table, axis=e), axis=ep) > CHECKER_TOL
            if bad.any():
                z = np.unravel_index(int(np.argmax(bad)), bad.shape)
                base = np.array(z, dtype=np.int64)
                return False, (base + unit(n, e), base + unit(n, ep))
    return True, None
