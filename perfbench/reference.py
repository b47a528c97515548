"""Reference optima for the built-in objectives, computed without latmax solvers.

Both built-in objectives are separable, so the optimum over the cap box under
a total budget takes the best marginal copies first:

- weighted-linear: every copy of element e gains w_e, so the caps of the
  heaviest elements are filled until the budget runs out;
- weighted-concave-sqrt: copy k of element e gains w_e * (sqrt(k) - sqrt(k-1)),
  which falls with k, so unit-step greedy over a max-heap of next gains is
  optimal.

The benchmark checks every solver value against these optima.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from latmax.lattice import WEIGHTED_CONCAVE_SQRT, WEIGHTED_LINEAR

# Relative slack for float comparisons against the sqrt optimum: the solver
# sums sqrt terms in numpy order, the reference sums them with math.fsum.
REL_TOL = 1e-9


def linear_optimum(weights, b, r: int) -> tuple:
    """(x, value) maximizing sum w_e x_e over 0 <= x <= b, sum x <= r."""
    weights = [int(w) for w in weights]
    x = np.zeros(len(weights), dtype=np.int64)
    left = int(r)
    for e in sorted(range(len(weights)), key=lambda e: -weights[e]):
        if left == 0:
            break
        take = min(int(b[e]), left)
        x[e] = take
        left -= take
    return x, float(sum(w * int(k) for w, k in zip(weights, x)))


def sqrt_optimum(weights, b, r: int) -> tuple:
    """(x, value) maximizing sum w_e sqrt(x_e) over 0 <= x <= b, sum x <= r."""
    weights = [int(w) for w in weights]
    x = np.zeros(len(weights), dtype=np.int64)
    heap = [(-float(w), e) for e, w in enumerate(weights)]  # first copy gains w_e
    heapq.heapify(heap)
    for _ in range(int(r)):
        if not heap:
            break
        _, e = heapq.heappop(heap)
        x[e] += 1
        k = int(x[e])
        if k < int(b[e]):
            heapq.heappush(heap, (-weights[e] * (math.sqrt(k + 1) - math.sqrt(k)), e))
    return x, math.fsum(w * math.sqrt(int(k)) for w, k in zip(weights, x))


def optimum(instance) -> float:
    """Optimal value of a built-in-objective instance."""
    kind = instance.objective.kind
    if kind == WEIGHTED_LINEAR:
        return linear_optimum(instance.objective.weights, instance.b, instance.r)[1]
    if kind == WEIGHTED_CONCAVE_SQRT:
        return sqrt_optimum(instance.objective.weights, instance.b, instance.r)[1]
    raise ValueError(f"no reference optimum for objective kind {kind!r}")


def exceeds(value: float, opt: float) -> bool:
    """True when a solver value lies above the optimum by more than float slack."""
    return value > opt + REL_TOL * max(1.0, abs(opt))


def falls_short(value: float, opt: float) -> bool:
    """True when a value that should be optimal lies below it by more than float slack."""
    return value < opt - REL_TOL * max(1.0, abs(opt))
