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

Both loops ``follow`` their incumbent on the oracle from the zero point and
``commit`` each accepted step to it, so every probe of a point one coordinate
away is answered from the oracle's followed state of the objective kind's
class in :mod:`latmax.lattice`: in O(1), by one dot product or by one call
of the objective, as the kind allows.  The kind's class also brackets each
probe's value by an O(1) interval, exact, certified or unbounded, and a
probe whose upper end already fails its bar answers that end without the
exact value.  A threshold step probe's bar is its step times the threshold.
A unit-step scan is one ``evaluate_batch`` call given no bar, which the
oracle reads as the scan's own: every candidate is barred at the largest
lower end, since a candidate whose upper end lies below it cannot be the
best.  Every decision, and every value a solver keeps, is thus that of a
full evaluation bit for bit.  The solvers name no kind and read no kind
state.

sgl makes one ``evaluate_stepped`` call per probe.  Each soma-dr-i pass
(:func:`_sweep_pass`) charges the searches that reject every probe, up to
the first element whose path has a probe that may pass, in one
``evaluate_batch`` call, and runs that element and the rest one probe at a
time.  It plans every element's probes at once for each incumbent, and the
oracle keeps them and their intervals until the next commit, so each is
computed once per incumbent.  A probe with an unbounded interval may always
pass, so such a pass charges nothing in a batch.

Randomized solvers draw from a PCG64 seeded with ``config.seed``, so runs
are bit-reproducible for a fixed seed.  Each run owns its stream
(:class:`_WordStream`), which reads the generator's raw words and draws
from them exactly what ``Generator.integers`` would, by numpy's own method
and its one rejection rule: a half-word (or, above 2**32, a word) that
Lemire's method rejects is spent, and the same draw starts again on the
next.  Both sample positions by a partial Fisher-Yates shuffle.  sgl needs the
shuffle's order, so each pass draws its steps one at a time and replays them
in plain Python (:meth:`_WordStream.pick`) into its pool, the list of
elements below their caps, and probes them against the oracle's list mirror
of x and a list of b.  The stream is the run's own, so what it reads ahead
is never lost and nothing is rewound.  ssg needs only the set of copy slots
each round picks, and every round commits one copy, so all its pool sizes
are known in advance: :func:`_sample_slot_sets` draws a block of rounds at
once, with whole-array arithmetic, and resolves each round to its sorted
slot set without a replay.  A block with a pool above 2**32 is drawn round
by round with :meth:`_WordStream.pick`.  Rounds that take every slot left,
always a run's last, draw nothing (:func:`_ssg_slot_sets`).
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
# ssg refuses instances whose rounds would each score more copy slots than this
SSG_SLOT_CAP = 10 ** 6
_BRUTE_FORCE_CHUNK = 1 << 16
# ssg draws the copy slots of a block of rounds at once, up to this many slots
_SLOT_BLOCK = 4096
# sgl stops, flagged stalled, after this many zero-commit passes at the floor
MAX_STALLED_PASSES = 2


@dataclass(frozen=True)
class AlgorithmConfig:
    """Run parameters shared by every solver.

    epsilon=None means "use 1/(4n)" at solve time.  seed is an integer in
    [0, 2**64), not a bool.  time_budget is a cooperative wall-clock cap in
    seconds (not NaN, not a bool): solvers check it at pass/round boundaries
    and return their current incumbent flagged ``timed_out``.
    """

    epsilon: Optional[float] = None
    seed: int = 0
    algorithm: str = SGL
    time_budget: Optional[float] = None

    def __post_init__(self):
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
                and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.time_budget is not None and (isinstance(self.time_budget, (bool, np.bool_))
                                             or not self.time_budget >= 0):  # NaN fails too
            raise ValueError(f"time_budget must be >= 0, got {self.time_budget}")


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


def guarantee_bound(algorithm: str, n: int, r: int, epsilon: float) -> float:
    """The approximation ratio reported for one run of algorithm.

    sgl: 1 - 1/e - t_bar * epsilon, t_bar at the clamped sample size (1 if r = 0);
    soma-dr-i and ssg: 1 - 1/e - epsilon; greedy: 1 - 1/e; exact: 1.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == EXACT:
        return 1.0
    if algorithm == GREEDY:
        return 1.0 - 1.0 / math.e
    if algorithm == SGL and r > 0:  # each pass samples only part of the ground set
        epsilon = t_bar(n, max(1, sample_size(n, r, epsilon))) * epsilon
    return 1.0 - 1.0 / math.e - epsilon


_RANGE32 = 1 << 32  # ranges up to this draw from a 32-bit half of a word
_LOW32 = _RANGE32 - 1
_WORDS = 4096  # most words read ahead beyond a request


class _WordStream:
    """The draws ``Generator(PCG64(seed)).integers(0, highs)`` makes, bit for
    bit, computed from the raw 64-bit words of a run's own PCG64.

    numpy draws below a range of at most 2**32 by Lemire's method on a
    32-bit half of a word: the product of the half and the range gives its
    high 32 bits, unless its low 32 bits fall below 2**32 % range.  Then the
    half is rejected, and one rule holds on every path: a rejected half is
    spent, and the same draw starts again on the next half.  The low half of
    a word goes first and the high half is kept for the next such draw,
    across calls.  A larger range does the same on a whole fresh word with
    64 bits, and leaves a kept half alone; a range of 1 draws nothing.

    The stream splits the words it reads ahead into their halves, low half
    first, with masks and shifts rather than a byte view, so it is the same
    on any platform.  A word's high half is kept exactly when the position of
    the next unused half is odd.  The stream belongs to one run, so halves
    read ahead are never lost, and nothing is rewound.  :meth:`integers`
    serves ssg's blocks, whose ranges lie in [2, 2**32], with whole-array
    arithmetic; :meth:`pick` serves sgl's passes, and ssg's rounds on pools
    above 2**32, one Python-int draw at a time.  Only ranges above 2**32
    reach :meth:`_below`.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._halves = np.empty(0, dtype=np.uint64)  # of whole words; unused from _pos on
        self._pos = 0

    def _next(self, count: int) -> np.ndarray:
        """The next count unused halves, left unused."""
        pos = self._pos
        if self._halves.size - pos < count:
            # read ahead as much again as was read so far, up to _WORDS words
            words = self._bits.random_raw(max(count // 2 + 1, min(self._halves.size, _WORDS)))
            start = pos & -2  # from the word of a kept half, so words stay aligned
            rest = self._halves.size - start
            halves = np.empty(rest + 2 * words.size, dtype=np.uint64)
            halves[:rest] = self._halves[start:]
            np.bitwise_and(words, _LOW32, out=halves[rest::2])
            np.right_shift(words, 32, out=halves[rest + 1::2])
            self._halves, self._pos = halves, pos - start
            pos = self._pos
        return self._halves[pos:pos + count]

    def _below(self, high: int) -> int:
        """One draw in [0, high), for high above 2**32, on whole fresh words."""
        threshold = (1 << 64) % high
        while True:
            low, up, after = self._next(3).tolist()
            if self._pos % 2:  # the word after the kept half; the kept half moves up
                low, up = up, after
                self._halves[self._pos + 2] = self._halves[self._pos]
            self._pos += 2
            product = (up << 32 | low) * high
            if product & ((1 << 64) - 1) >= threshold:
                return product >> 64

    def integers(self, ranges: np.ndarray) -> np.ndarray:
        """Draws below the int64 entries of 1-D ranges, each in [2, 2**32], in order.

        Draw i takes the i-th next half, until a product is rejected: the
        draws before it stand, the rejected half is spent, and the draws
        from it on start again on the next half.
        """
        ranges = ranges.view(np.uint64)
        out = np.empty(ranges.size, dtype=np.uint64)
        done = 0
        while done < ranges.size:
            rest = ranges[done:]
            products = self._next(rest.size) * rest
            low = products & _LOW32
            stop = spent = rest.size
            flags = low < rest
            if flags.any():  # rarely
                flagged = np.flatnonzero(flags)
                rejected = flagged[low[flagged] < np.uint64(_RANGE32) % rest[flagged]]
                if rejected.size:
                    stop = int(rejected[0])
                    spent = stop + 1
            np.right_shift(products[:stop], 32, out=out[done:done + stop])
            self._pos += spent
            done += stop
        return out.view(np.int64)

    def pick(self, pool, k: int) -> list:
        """The entries of pool that k steps of a partial Fisher-Yates shuffle pick.

        Step i swaps position i with target i + offset, the offset drawn
        below len(pool) - i, and picks what the target holds.  Only displaced
        positions are tracked, in a dict, so the pool is read, never copied.
        A range above 2**32 draws through :meth:`_below`, and a range of 1
        takes position i without a draw.  Every other offset is drawn inline,
        on Python ints, from halves read ahead; after a rejection the same
        step draws again on the next half.  Ranges fall from step to step, so
        no half is read ahead before the last whole-word draw.
        """
        m = len(pool)
        low32, range32 = _LOW32, _RANGE32
        displaced = {}  # position -> pool entry now held there
        held = displaced.get
        picks = []
        halves, used = [], 0  # halves read ahead from _pos on; the first `used` are spent
        i = 0
        while i < k:
            high = m - i
            if high > range32:
                j = i + self._below(high)
            elif high == 1:
                j = i
            else:
                if used == len(halves):
                    self._pos += used
                    halves, used = self._next(k - i).tolist(), 0
                product = halves[used] * high
                used += 1
                if product & low32 < high and product & low32 < range32 % high:
                    continue  # rejected: the half is spent, and step i draws again
                j = i + (product >> 32)
            picks.append(held(j, pool[j]))
            displaced[j] = held(i, pool[i])  # position i is final from here on
            i += 1
        self._pos += used
        return picks


def _sample_slot_sets(stream: _WordStream, pools: np.ndarray, k: int) -> np.ndarray:
    """Row t: the k positions ``stream.pick(range(pools[t]), k)`` picks, sorted,
    drawn in the stream of one such call per row, for 0 < k < min(pools).

    Step i swaps position i with its target j >= i, and positions below i
    never move again.  So every target of at least k is picked once, and its
    last drawer pushes out of [0, k) what it held: position i itself, unless
    an earlier step drew i and handed it its own holding.  Pointer jumping
    over those hand-overs finds it.  A block with a pool above 2**32 is
    drawn by ``pick`` row by row.  Below that, the packed sort keys, targets
    under 2**32 shifted past a flat cell index, fit int64 for any block of
    under 2**31 cells; an ssg block holds at most max(_SLOT_BLOCK,
    SSG_SLOT_CAP) cells, so its keys stay below 2**52.
    """
    rows = len(pools)
    if not 0 < k < int(pools.min()):
        raise ValueError(f"need 0 < k < {int(pools.min())}, the smallest pool, got k = {k}")
    if int(pools.max()) > _RANGE32:
        return np.sort([stream.pick(range(int(m)), k) for m in pools], axis=1)
    size = rows * k
    shift = size.bit_length()
    steps = np.arange(k)
    targets = stream.integers((pools[:, None] - steps).ravel()).reshape(rows, k) + steps
    # each row sorted by target, then step; the low bits hold the step's flat index
    cells = np.sort(targets << shift | np.arange(size).reshape(rows, k), axis=1).ravel()
    target, step = cells >> shift, cells & ((1 << shift) - 1)
    last = np.ones(size, dtype=bool)  # last[c]: cell c ends a run of equal targets
    np.not_equal(target[1:], target[:-1], out=last[:-1])
    last[k - 1::k] = True
    high = target >= k
    picked = last & high  # one cell per distinct target of at least k
    kept = np.ones(size, dtype=bool)  # kept[row * k + i]: position i < k stays picked
    kept[step[picked]] = False
    # the last drawer of a target below k hands that position what it held;
    # position i's holding is read only if step i draws a target of at least
    # k, so a self-swap, which hands i its own holding, needs no special case
    handed = np.flatnonzero(last & ~high)
    if handed.size:
        held = step[handed]
        spot = held - held % k + target[handed]
        holder = np.arange(size)
        holder[spot] = held
        while True:
            up = holder[held]
            if (up == held).all():
                break
            held = up
        pushed = ~kept[spot]  # these drawers pushed out their holding, not themselves
        kept[spot[pushed]] = True
        kept[held[pushed]] = False
    values = np.empty((rows, 2 * k), dtype=np.int64)
    values[:, :k] = steps
    values[:, k:] = target.reshape(rows, k)
    chosen = np.concatenate([kept.reshape(rows, k), picked.reshape(rows, k)], axis=1)
    return values[chosen].reshape(rows, k)


def _ssg_slot_sets(stream: _WordStream, total: int, s: int, rounds: int):
    """The sorted copy slots of each ssg round, drawn a block of rounds at a time.

    Each round commits one copy, so round t samples min(s, total - t) of the
    total - t slots left.  A block shares the sample size s and holds up to
    _SLOT_BLOCK slots.  Once a round's pool is at most s, it and every later
    round take every slot left and draw nothing.
    """
    t = 0
    while t < rounds and total - t > s:
        remaining = total - t
        block = min(max(1, _SLOT_BLOCK // s), rounds - t, remaining - s)
        yield from _sample_slot_sets(stream, remaining - np.arange(block), s)
        t += block
    for remaining in range(total - t, total - rounds, -1):
        yield np.arange(remaining)


def max_feasible_step(oracle: CountingOracle, e: int, k_max: int, theta: float,
                      fx: float):
    """Largest k in [1, k_max] whose cumulative gain clears k * theta.

    Binary search over the step count, probing the acceptance predicate
    f(x + k * 1_e) - f(x) >= k * theta for the incumbent x the oracle follows.
    The predicate set is a prefix of [1, k_max] whenever the objective has
    diminishing returns, which makes the search exact; for other objectives
    it is a heuristic.

    Returns (k, f(x + k * 1_e)) for the accepted step, or None.  fx is the
    caller's cached f(x).  Costs at most ceil(log2(k_max + 1)) queries; the
    returned objective value lets the caller update its incumbent and apply
    acceptance guards without re-querying.  Each probe is given its bar, so
    the oracle may reject it from a certified interval; an accepted probe's
    value is always exact.
    """
    probe = oracle.evaluate_stepped
    lo, hi = 1, k_max
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        need = mid * theta
        # positional, so a wrapper taking only *args sees every probe
        val = probe(e, mid, fx, need)
        if val - fx >= need:
            best, best_val = mid, val
            lo = mid + 1
        else:
            hi = mid - 1
    if not best:
        return None
    return best, best_val


def _finish(instance: ProblemInstance, x: np.ndarray, oracle: CountingOracle,
            iterations: int, start: float, stalled: bool = False,
            timed_out: bool = False) -> Solution:
    if not instance.is_feasible(x):
        raise RuntimeError(f"solver returned an infeasible point {x.tolist()}")
    # value re-checked directly against the objective, outside the counter
    return Solution(x=x, value=float(instance.objective(x)), queries=oracle.queries,
                    iterations=iterations, wall_time=time.perf_counter() - start,
                    stalled=stalled, timed_out=timed_out)


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


def _threshold_pass(oracle, fx, card, caps, r, theta, elements):
    """One acceptance sweep: binary-search a step for each listed element id.

    Commits accepted steps immediately, so later elements in the same pass
    see the updated incumbent, except a step that lowers f(x): the guard reads
    the value the search paid for, so it is query-free.  caps mirrors b as a
    list, and the oracle's xs mirrors x.
    """
    xs = oracle.xs
    committed = False
    max_cap_seen = 0
    for e in elements:
        k_cap = caps[e] - xs[e]  # min(b_e - x_e, r - |x|), without a builtin call
        if k_cap > r - card:
            k_cap = r - card
        if k_cap <= 0:
            continue
        if k_cap > max_cap_seen:
            max_cap_seen = k_cap
        hit = max_feasible_step(oracle, e, k_cap, theta, fx)
        if hit is None or hit[1] < fx:
            continue
        k, fx = hit
        oracle.commit(e, k)
        card += k
        committed = True
    return fx, card, committed, max_cap_seen


def _all_reject_paths(gaps, room):
    """(elements, steps) of every probe of the searches that reject each probe.

    Such a search tries k = ceil(K / 2) and then halves k down to 1, where
    K = min(b_e - x_e, room), so its probes depend on K alone.  gaps holds
    b_e - x_e of every element.  Elements with K = 0 have no probes; the
    others, at least one since a sweep runs only while |x| < r < |b|_1, are
    listed element by element, in order.
    """
    caps = np.minimum(gaps, room)
    live = np.flatnonzero(caps > 0)
    caps = caps[live]
    first = caps - (caps >> 1)  # (K + 1) // 2 without overflow
    probes = first[:, None] >> np.arange(int(first.max()).bit_length())
    on_path = probes > 0
    return np.repeat(live, on_path.sum(axis=1)), probes[on_path]


def _sweep_pass(oracle, x, fx, card, b, caps, r, theta):
    """:func:`_threshold_pass` over every element, its all-reject prefix in one batch.

    The oracle keeps the all-reject paths of every element
    (:func:`_all_reject_paths`) and their intervals until a commit changes x:
    each incumbent is planned once, whole, and a pass that commits nothing
    plans nothing.  Nothing else plans (a unit-step scan screens itself in
    ``evaluate_batch``), so a kept plan is always the sweep's own.  The paths
    of the elements before the first one with a probe whose bound may not
    reject are charged in one batch, in the scalar order; that element and
    the rest run the scalar pass, so queries, decisions and values match it.
    An unbounded probe never rejects, so a pass of such probes is the scalar
    pass.
    """
    plan = oracle.plan
    if plan is None:  # the incumbent changed since the last plan
        plan = oracle.plan_stepped(*_all_reject_paths(b - x, r - card))
    elements, steps, _, high = plan
    needs = steps * theta
    open_ = np.flatnonzero(high - fx >= needs)  # probes that may not reject
    cut = int(elements.searchsorted(elements[open_[0]])) if open_.size else steps.size
    if cut and not (oracle.evaluate_batch(elements[:cut], steps[:cut], fx, needs[:cut])
                    - fx < needs[:cut]).all():
        raise RuntimeError("a charged probe accepted where its bound rejected")
    e = int(elements[cut]) if cut < steps.size else x.size  # the first scalar element
    max_cap_seen = min(int((b[:e] - x[:e]).max(initial=0)), r - card)
    fx, card, committed, cap_seen = _threshold_pass(oracle, fx, card, caps, r, theta,
                                                    range(e, x.size))
    return fx, card, committed, max(max_cap_seen, cap_seen)


def _threshold_run(instance: ProblemInstance, config: AlgorithmConfig,
                   trace: Optional[list], sampled: bool) -> Solution:
    """The decreasing-threshold loop behind :func:`sgl` and :func:`soma_dr_i`.

    sampled=True draws each pass's elements from those below their caps and
    stops after MAX_STALLED_PASSES zero-commit passes at the floor;
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
    stream = _WordStream(config.seed) if sampled else None
    x = zeros(n)
    caps = b.tolist()  # the scalar pass's mirror of b; the oracle's xs mirrors x
    fx = oracle.follow(x)
    theta = d = float(oracle.evaluate_batch(np.arange(n)).max())
    theta_stop = (eps / r) * d
    s_raw = max(1, sample_size(n, r, eps))
    available = elements = list(range(n))  # the elements below their caps, ascending

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
            elements = stream.pick(available, min(s_raw, len(available)))
        before = oracle.queries
        if sampled:
            fx, card, committed, cap_seen = _threshold_pass(oracle, fx, card, caps, r, theta,
                                                            elements)
        else:
            fx, card, committed, cap_seen = _sweep_pass(oracle, x, fx, card, b, caps, r, theta)
        iterations += 1
        if trace is not None:
            trace.append(PassStats(queries=oracle.queries - before,
                                   sample_size=len(elements), max_step_cap=cap_seen,
                                   committed=committed, value=fx, theta=theta))
        if card >= r:
            break
        if sampled and committed:  # only a commit changes x; a filled element leaves the pool
            for e in elements:
                if oracle.xs[e] == caps[e]:
                    available.remove(e)
        if theta <= theta_stop:
            if not sampled:
                break  # the final sweep at the floor just completed
            # idle passes only accrue at the floor, where theta stays
            idle_at_floor = 0 if committed else idle_at_floor + 1
            if idle_at_floor >= MAX_STALLED_PASSES:
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
    x = zeros(n)
    fx = oracle.follow(x)
    rounds = r
    if sampled:
        total = cardinality(b)
        s = max(1, sample_size(total, r, resolve_epsilon(config, n)))
        if min(s, total) > SSG_SLOT_CAP:
            raise ValueError(f"an ssg round would score {min(s, total)} copy slots, "
                             f"cap is {SSG_SLOT_CAP}")
        ends = np.cumsum(b)  # ends[e]: remaining slots of the elements up to e
        rounds = min(r, total)
        slot_sets = _ssg_slot_sets(_WordStream(config.seed), total, s, rounds)

    iterations = 0
    timed_out = False
    for _ in range(rounds):
        if _out_of_time(start, config.time_budget):
            timed_out = True
            break
        if sampled:
            candidates = np.searchsorted(ends, next(slot_sets), side="right")
        else:
            candidates = np.flatnonzero(x < b)
            if candidates.size == 0:
                break
        before = oracle.queries
        vals = oracle.evaluate_batch(candidates)
        best = int(vals.argmax())  # candidates ascend, so ties go to the smallest id
        best_e, best_val = int(candidates[best]), float(vals[best])
        if not sampled and best_val - fx <= 0:
            break
        oracle.commit(best_e, 1)
        if sampled:
            ends[best_e:] -= 1
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
    stops after MAX_STALLED_PASSES (two) of them and returns its incumbent
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

    Enumerates every x <= b with |x|_1 <= r in lexicographic order, building
    one evaluation chunk at a time, and keeps the first maximizer, so ties go
    to the lexicographically smallest point.  Refuses instances whose
    enumeration box prod(min(b_e, r) + 1) exceeds BRUTE_FORCE_POINT_CAP.
    time_budget is checked as :class:`AlgorithmConfig` checks it.
    """
    AlgorithmConfig(algorithm=EXACT, time_budget=time_budget)
    n, b, r = instance.n, instance.b, instance.r
    start = time.perf_counter()
    total = math.prod((np.minimum(b, r) + 1).tolist())
    if total > BRUTE_FORCE_POINT_CAP:
        raise ExhaustivenessCapError(
            f"enumeration box holds {total} points, cap is {BRUTE_FORCE_POINT_CAP}")
    oracle = CountingOracle(instance.objective)

    best_val = -math.inf
    best_x = zeros(n)  # kept if the run times out before the first chunk
    timed_out = False
    for chunk in _budget_feasible_blocks(b.tolist(), r):
        if _out_of_time(start, time_budget):
            timed_out = True
            break
        vals = oracle.evaluate_batch(chunk)
        i = int(np.argmax(vals))
        if float(vals[i]) > best_val:
            best_val = float(vals[i])
            best_x = chunk[i].copy()
    return _finish(instance, best_x, oracle, oracle.queries, start, timed_out=timed_out)


def _budget_feasible_blocks(b: list, r: int, prefix: tuple = ()):
    """Every x <= b with |x|_1 <= r in lexicographic order, in blocks of at most
    _BRUTE_FORCE_CHUNK points; r is the budget left after the fixed `prefix`.

    A block is as long a run of values of the first free coordinate as the box
    of the remaining ones allows; past a chunk, each value is fixed in turn.
    """
    head, tail = min(b[0], r), b[1:]
    tail_box = math.prod(min(cap, r) + 1 for cap in tail)
    if tail_box > _BRUTE_FORCE_CHUNK:
        for v in range(head + 1):
            yield from _budget_feasible_blocks(tail, r - v, prefix + (v,))
        return
    run = _BRUTE_FORCE_CHUNK // tail_box
    for lo in range(0, head + 1, run):
        # fixed coordinates get cap 0 and are added back with the run's start
        caps = [0] * len(prefix) + [min(run, head + 1 - lo) - 1] + tail
        block = _budget_feasible_points(caps, r - lo)
        block[:, :len(prefix) + 1] += (*prefix, lo)
        yield block


def _budget_feasible_points(b: list, r: int) -> np.ndarray:
    """Every x <= b with |x|_1 <= r, one per row, in lexicographic order.

    Built coordinate by coordinate: each prefix is followed by the values its
    remaining budget allows, ascending, so prefixes stay in order.  Each level
    keeps only its new coordinate and the index of its parent prefix; the
    rows are assembled once at the end.
    """
    levels = []  # per coordinate: (value, parent prefix index) of each prefix
    used = np.zeros(1, dtype=np.int64)  # |prefix|_1 of each prefix so far
    for cap in b:
        counts = np.minimum(cap, r - used) + 1
        parent = np.repeat(np.arange(used.size), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        levels.append((value, parent))
        used = used[parent] + value
    points = np.empty((used.size, len(levels)), dtype=np.int64)
    prefix = np.arange(used.size)
    for e in range(len(levels) - 1, -1, -1):
        value, parent = levels[e]
        points[:, e] = value[prefix]
        prefix = parent[prefix]
    return points


_SOLVERS = {
    SGL: sgl,
    SOMA_DR_I: soma_dr_i,
    SSG: ssg,
    GREEDY: greedy_lattice,
    EXACT: lambda instance, config: exact_bruteforce(instance, config.time_budget),
}


def solve(instance: ProblemInstance, config: AlgorithmConfig) -> Solution:
    """Dispatch on config.algorithm, which AlgorithmConfig has validated."""
    return _SOLVERS[config.algorithm](instance, config)
