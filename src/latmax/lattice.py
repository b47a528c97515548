"""Core vocabulary for optimization on the bounded integer lattice.

Points live in Z_+^n and are represented as 1-D numpy int64 arrays.  The
module provides the componentwise lattice operations, black-box objective
functions with a query-counting wrapper, and exhaustive checkers for the
structural properties (monotonicity, diminishing returns, lattice
submodularity) that the solvers in :mod:`latmax.solvers` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Exhaustive checkers refuse boxes with more than this many points.
DEFAULT_CHECKER_CAP = 100_000

# Absolute slack used when comparing float marginals inside the checkers.
# Sums of square roots can differ by a few ulps depending on the order of
# accumulation; genuine violations of the checked inequalities are far
# larger than this for any objective built here.
CHECKER_TOL = 1e-9


class ExhaustivenessCapError(ValueError):
    """An exhaustive enumeration was requested over too many points."""


# ---------------------------------------------------------------------------
# lattice points


def as_point(values, n: Optional[int] = None) -> np.ndarray:
    """Coerce to a 1-D int64 point and validate nonnegativity (and length)."""
    x = np.asarray(values, dtype=np.int64)
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


def linf(x: np.ndarray) -> int:
    return int(x.max())


def support(x: np.ndarray) -> np.ndarray:
    """Indices of strictly positive entries."""
    return np.flatnonzero(x > 0)


def meet(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise minimum."""
    return np.minimum(x, y)


def join(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise maximum."""
    return np.maximum(x, y)


def leq(x: np.ndarray, y: np.ndarray) -> bool:
    """Componentwise order x <= y."""
    return bool(np.all(x <= y))


# ---------------------------------------------------------------------------
# objectives

WEIGHTED_LINEAR = "weighted-linear"
WEIGHTED_CONCAVE_SQRT = "weighted-concave-sqrt"
CUSTOM = "custom"


def _checked_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.int64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D integer array")
    if int(w.min()) < 1 or int(w.max()) > 100:
        raise ValueError("built-in objective weights must lie in [1, 100]")
    return _read_only_copy(w)


@dataclass(frozen=True, eq=False)
class Objective:
    """Black-box value function f: Z_+^n -> R.

    Built-in kinds are normalized (f(0) = 0), monotone, and have diminishing
    returns.  ``weighted-linear`` evaluates the weighted sum in integer
    arithmetic and converts to float only on return, so its values are exact.
    A ``custom`` objective wraps an arbitrary callable and carries no
    structural guarantees.
    """

    kind: str
    n: int
    weights: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("objective dimension must be >= 1")
        if self.kind in (WEIGHTED_LINEAR, WEIGHTED_CONCAVE_SQRT):
            if self.weights is None or self.weights.size != self.n:
                raise ValueError("built-in objective needs one weight per element")
        elif self.kind == CUSTOM:
            if self.fn is None:
                raise ValueError("custom objective needs a callable")
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")

    def __call__(self, x: np.ndarray) -> float:
        if self.kind == WEIGHTED_LINEAR:
            return float(int(self.weights @ x))
        if self.kind == WEIGHTED_CONCAVE_SQRT:
            return float(np.sqrt(x) @ self.weights)
        return float(self.fn(x))

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an (m, n) array of points, one float per row."""
        if self.kind == WEIGHTED_LINEAR:
            return (points @ self.weights).astype(np.float64)
        if self.kind == WEIGHTED_CONCAVE_SQRT:
            return np.sqrt(points) @ self.weights.astype(np.float64)
        return np.array([float(self.fn(p)) for p in points], dtype=np.float64)


def weighted_linear(weights) -> Objective:
    """f(x) = sum_e w_e * x_e (modular)."""
    w = _checked_weights(weights)
    return Objective(kind=WEIGHTED_LINEAR, n=w.size, weights=w)


def weighted_concave_sqrt(weights) -> Objective:
    """f(x) = sum_e w_e * sqrt(x_e); strictly concave per coordinate."""
    w = _checked_weights(weights)
    return Objective(kind=WEIGHTED_CONCAVE_SQRT, n=w.size, weights=w)


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
    copy budget.  Feasible points form a finite sublattice of Z_+^n.
    """

    n: int
    b: np.ndarray
    r: int
    objective: Objective

    def __post_init__(self):
        object.__setattr__(self, "b", _read_only_copy(as_point(self.b, n=self.n)))
        if self.n < 1:
            raise ValueError("instance needs n >= 1")
        if int(self.b.min()) < 1:
            raise ValueError("every availability cap b_e must be >= 1")
        if self.r < 0:
            raise ValueError("copy budget r must be >= 0")
        if self.objective.n != self.n:
            raise ValueError("objective dimension does not match the instance")

    def is_feasible(self, x: np.ndarray) -> bool:
        return x.shape[0] == self.n and bool(np.all(x >= 0)) and leq(x, self.b) \
            and cardinality(x) <= self.r


# ---------------------------------------------------------------------------
# counting oracle


class CountingOracle:
    """Wraps an objective and counts every evaluation.

    One oracle per solver run.  Every call that touches the objective bumps
    ``queries`` by the number of points evaluated; a marginal gain costs a
    single query when the caller supplies the cached incumbent value.
    """

    __slots__ = ("objective", "queries")

    def __init__(self, objective: Objective):
        self.objective = objective
        self.queries = 0

    def evaluate(self, x: np.ndarray) -> float:
        if x.shape[0] != self.objective.n:
            raise ValueError(
                f"point has {x.shape[0]} entries, objective expects {self.objective.n}"
            )
        self.queries += 1
        return self.objective(x)

    def evaluate_stepped(self, x: np.ndarray, e: int, k: int) -> float:
        """f(x + k * 1_e) in one query, without copying x."""
        if x.shape[0] != self.objective.n:
            raise ValueError(
                f"point has {x.shape[0]} entries, objective expects {self.objective.n}"
            )
        self.queries += 1
        x[e] += k
        try:
            return self.objective(x)
        finally:
            x[e] -= k

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] != self.objective.n:
            raise ValueError(
                f"points have {points.shape[1]} entries, objective expects {self.objective.n}"
            )
        self.queries += len(points)
        return self.objective.batch(points)


# ---------------------------------------------------------------------------
# exhaustive structure checkers
#
# All three checkers enumerate the full box [0, box] and verify the unit-step
# form of each property.  On a product of chains the unit-step conditions are
# equivalent to the pairwise definitions (any comparable pair is connected by
# unit steps, and any diamond decomposes into single-coordinate exchanges),
# so a returned counterexample is always a genuine violating pair and a True
# result certifies the property over the whole box.  The checkers refuse,
# rather than subsample, when the box exceeds the point cap.


def _require_within_cap(box: np.ndarray, cap: int) -> None:
    points = 1
    for v in box:
        points *= int(v) + 1
    if points > cap:
        raise ExhaustivenessCapError(
            f"box holds {points} points, which exceeds the cap of {cap}; "
            "refusing to subsample an exhaustive check"
        )


def _value_table(objective: Objective, shape: tuple) -> np.ndarray:
    pts = np.indices(shape).reshape(len(shape), -1).T
    return objective.batch(np.ascontiguousarray(pts)).reshape(shape)


def _crop(table: np.ndarray, extents) -> np.ndarray:
    return table[tuple(slice(0, int(e)) for e in extents)]


def check_monotone(objective: Objective, box, cap: int = DEFAULT_CHECKER_CAP,
                   tol: float = CHECKER_TOL):
    """Exhaustively verify f(x) <= f(y) for all x <= y inside the box.

    Returns (True, None) or (False, (x, y)) where (x, y) is the first
    violating unit step in (axis, lexicographic) order.
    """
    box = as_point(box, n=objective.n)
    _require_within_cap(box, cap)
    table = _value_table(objective, tuple(int(v) + 1 for v in box))
    n = box.size
    for e in range(n):
        if box[e] < 1:
            continue
        drop = np.diff(table, axis=e)
        bad = drop < -tol
        if bad.any():
            z = np.unravel_index(int(np.argmax(bad)), bad.shape)
            x = np.array(z, dtype=np.int64)
            return False, (x, x + unit(n, e))
    return True, None


def check_dr_submodular(objective: Objective, box, cap: int = DEFAULT_CHECKER_CAP,
                        tol: float = CHECKER_TOL):
    """Exhaustively verify diminishing returns on the box.

    The property checked is f(x + 1_e) - f(x) >= f(y + 1_e) - f(y) for all
    x <= y <= box and every coordinate e.  Returns (True, None) or
    (False, (x, y, e)) with a genuine violating triple.
    """
    box = as_point(box, n=objective.n)
    _require_within_cap(box, cap)
    n = box.size
    # values on [0, box + 1] so single-copy gains exist everywhere on the box
    table = _value_table(objective, tuple(int(v) + 2 for v in box))
    for e in range(n):
        gain = _crop(np.diff(table, axis=e), box + 1)  # gain of +1_e on [0, box]
        for ep in range(n):
            if box[ep] < 1:
                continue
            rise = np.diff(gain, axis=ep)  # gain at z + 1_ep minus gain at z
            bad = rise > tol
            if bad.any():
                z = np.unravel_index(int(np.argmax(bad)), bad.shape)
                x = np.array(z, dtype=np.int64)
                return False, (x, x + unit(n, ep), e)
    return True, None


def check_lattice_submodular(objective: Objective, box, cap: int = DEFAULT_CHECKER_CAP,
                             tol: float = CHECKER_TOL):
    """Exhaustively verify f(x) + f(y) >= f(x meet y) + f(x join y) on the box.

    Returns (True, None) or (False, (x, y)) where (x, y) is an incomparable
    violating pair.
    """
    box = as_point(box, n=objective.n)
    _require_within_cap(box, cap)
    n = box.size
    table = _value_table(objective, tuple(int(v) + 1 for v in box))
    for e in range(n):
        if box[e] < 1:
            continue
        for ep in range(e + 1, n):
            if box[ep] < 1:
                continue
            low = _double_shift(table, e, 0, ep, 0)
            side_e = _double_shift(table, e, 1, ep, 0)
            side_ep = _double_shift(table, e, 0, ep, 1)
            high = _double_shift(table, e, 1, ep, 1)
            bad = (side_e + side_ep) < (low + high) - tol
            if bad.any():
                z = np.unravel_index(int(np.argmax(bad)), bad.shape)
                base = np.array(z, dtype=np.int64)
                return False, (base + unit(n, e), base + unit(n, ep))
    return True, None


def _double_shift(table: np.ndarray, axis_a: int, off_a: int, axis_b: int, off_b: int) -> np.ndarray:
    sl = [slice(None)] * table.ndim
    sl[axis_a] = slice(1, None) if off_a else slice(0, -1)
    sl[axis_b] = slice(1, None) if off_b else slice(0, -1)
    return table[tuple(sl)]
