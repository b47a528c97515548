"""Per-layer timers for the traced benchmark run.

The traced run wraps the entry points of each latmax layer with timers kept in
the benchmark's own files; the end-to-end runs never install them.  Each timed
call is a frame on a stack.  A frame's self time is its duration minus the
durations of the timed calls made inside it, so the self times of all layers
plus the workload frame's own self time (``unattributed``) add up to the traced
wall time.  A call into a layer made from inside the same layer belongs to the
outer call.

One span is kept per workload repetition and one per solver run, with the
repetition as parent.  Layers below the solver run are aggregated into counters
on the run's span.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager

WORKLOAD = "workload"
OBJECTIVE = "lattice.objective"
ORACLE = "lattice.oracle"
STEP_SEARCH = "solvers.step_search"
SOLVE = "solvers.solve"
INSTANCES = "bench.instances"
CSV_WRITE = "bench.csv_write"
CSV_READ = "bench.csv_read"
REPORT = "report"

LAYERS = (WORKLOAD, OBJECTIVE, ORACLE, STEP_SEARCH, SOLVE, INSTANCES, CSV_WRITE,
          CSV_READ, REPORT)
BELOW_SOLVE = (OBJECTIVE, ORACLE, STEP_SEARCH)

# per-layer accumulator slots
CALLS, WORK, SELF_S, QUERIES = range(4)


def _one(args, result):
    return 1


def _rows(args, result):  # method(self, points): one unit of work per row
    return len(args[1])


def _accepted(args, result):
    return 0 if result is None else 1


def _result_len(args, result):
    return 0 if result is None else len(result)


# (layer, module, class or None, attribute, work tally).  The bench names are
# patched in the bench module because bench calls them through its own globals.
ENTRY_POINTS = (
    (OBJECTIVE, "latmax.lattice", "Objective", "__call__", _one),
    (OBJECTIVE, "latmax.lattice", "Objective", "batch", _rows),
    (ORACLE, "latmax.lattice", "CountingOracle", "evaluate", _one),
    (ORACLE, "latmax.lattice", "CountingOracle", "evaluate_stepped", _one),
    (ORACLE, "latmax.lattice", "CountingOracle", "evaluate_batch", _rows),
    (STEP_SEARCH, "latmax.solvers", None, "max_feasible_step", _accepted),
    (SOLVE, "latmax.bench", None, "solve", _one),
    (SOLVE, "latmax.solvers", None, "solve", _one),
    (INSTANCES, "latmax.bench", None, "generate_instance", _one),
    (INSTANCES, "latmax.bench", None, "instance_hash", _one),
    (INSTANCES, "latmax.bench", None, "expand_grid", _result_len),
    (CSV_WRITE, "latmax.bench", None, "record_to_row", _one),
    (CSV_READ, "latmax.bench", None, "read_records", _result_len),
)
REPORT_MODULE = "latmax.report"  # every public function in it is wrapped


def percentile(samples, pct: int) -> float:
    """Nearest-rank percentile of samples (0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def tail_percentile(samples) -> tuple:
    """(percentile, value): the highest whole percentile with >= 10 samples above it.

    With ten samples or fewer no percentile qualifies; the minimum is returned
    as percentile 0.
    """
    n = len(samples)
    pct = max(0, (100 * (n - 10)) // n) if n else 0
    return pct, percentile(samples, pct)


class Tracer:
    """Timers, counters and spans for one traced benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.stats = {layer: [0, 0, 0.0, 0] for layer in LAYERS}
        self.stack = []          # frames: [layer, child seconds, queries at entry]
        self.queries = 0         # oracle queries seen by the timers so far
        self.tally_gap = 0       # sum over runs of |reported - timed| queries
        self.run_seconds = []    # inclusive duration of every solver run
        self.rep_seconds = []    # duration of every traced repetition
        self.spans = []
        self.absent = []         # entry points that could not be found
        self._patched = []
        self._rep_id = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; record the missing ones."""
        points = list(ENTRY_POINTS)
        try:
            report = importlib.import_module(REPORT_MODULE)
        except ImportError:
            self.absent.append(f"{REPORT}: {REPORT_MODULE}")
        else:
            points += [(REPORT, REPORT_MODULE, None, name, _one)
                       for name, fn in sorted(vars(report).items())
                       if inspect.isfunction(fn) and fn.__module__ == REPORT_MODULE
                       and not name.startswith("_")]
        for layer, module, cls, attr, tally in points:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{layer}: {module}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapper = self._wrap_solve(fn) if layer == SOLVE else self._wrap(layer, fn, tally)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- timing ------------------------------------------------------------

    def _close(self, frame, duration: float, work) -> None:
        stats = self.stats[frame[0]]
        stats[CALLS] += 1
        stats[WORK] += work
        stats[SELF_S] += duration - frame[1]
        stats[QUERIES] += self.queries - frame[2]
        if self.stack:
            self.stack[-1][1] += duration

    def _wrap(self, layer, fn, tally):
        tracer = self
        clock = time.perf_counter
        is_oracle = layer == ORACLE

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer.stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, tracer.queries]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                work = tally(args, result)
                if is_oracle:
                    tracer.queries += work
                tracer._close(frame, duration, work)

        return timed

    def _wrap_solve(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(instance, config):
            stack = tracer.stack
            if not stack or stack[-1][0] == SOLVE:
                return fn(instance, config)
            before = tracer._snapshot(BELOW_SOLVE)
            frame = [SOLVE, 0.0, tracer.queries]
            stack.append(frame)
            sol = None
            start = clock()
            try:
                sol = fn(instance, config)
                return sol
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end - start, 1)
                counters = tracer._counters_since(before)
                timed_queries = tracer.queries - frame[2]
                reported = timed_queries if sol is None else int(sol.queries)
                tracer.tally_gap += abs(reported - timed_queries)
                tracer.run_seconds.append(end - start)
                tracer.spans.append({
                    "id": len(tracer.spans) + 1, "parent": tracer._rep_id, "name": SOLVE,
                    "attrs": {"algorithm": config.algorithm, "n": instance.n, "r": instance.r,
                              "reported_queries": reported, "raised": sol is None},
                    "start_s": start - tracer.t0, "end_s": end - tracer.t0,
                    "counters": counters,
                })

        return timed

    def _snapshot(self, layers) -> dict:
        return {layer: list(self.stats[layer]) for layer in layers}

    def _counters_since(self, before: dict) -> dict:
        out = {}
        for layer, old in before.items():
            now = self.stats[layer]
            out[f"{layer}.calls"] = now[CALLS] - old[CALLS]
            out[f"{layer}.work"] = now[WORK] - old[WORK]
            out[f"{layer}.self_s"] = now[SELF_S] - old[SELF_S]
        return out

    @contextmanager
    def repetition(self, **attrs):
        """Time one workload repetition as the root frame of its span."""
        if self.stack:
            raise RuntimeError("repetitions do not nest")
        before = self._snapshot(LAYERS)
        self._rep_id = len(self.spans) + 1
        span = {"id": self._rep_id, "parent": None, "name": WORKLOAD, "attrs": attrs}
        self.spans.append(span)
        frame = [WORKLOAD, 0.0, self.queries]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, end - start, 1)
            self.rep_seconds.append(end - start)
            span.update(start_s=start - self.t0, end_s=end - self.t0,
                        counters=self._counters_since(before))
            self._rep_id = None

    # -- results -----------------------------------------------------------

    def layer_metrics(self, untraced_rep_s: float) -> dict:
        """Per-layer metrics, each total divided by the number of traced repetitions."""
        reps = len(self.rep_seconds)
        if reps == 0:
            raise ValueError("no traced repetition was run")
        stats = self.stats

        def per_rep(total):
            return total // reps if isinstance(total, int) and total % reps == 0 else total / reps

        def ns_per(layer):
            work = stats[layer][WORK]
            return 1e9 * stats[layer][SELF_S] / work if work else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        wall = sum(self.rep_seconds) / reps
        tail_pct, tail_s = tail_percentile(self.run_seconds)
        steps = stats[STEP_SEARCH]
        return {
            "lattice.objective.points": per_rep(stats[OBJECTIVE][WORK]),
            "lattice.objective.self_s": per_rep(stats[OBJECTIVE][SELF_S]),
            "lattice.objective.ns_per_point": ns_per(OBJECTIVE),
            "lattice.oracle.queries": per_rep(stats[ORACLE][WORK]),
            "lattice.oracle.self_s": per_rep(stats[ORACLE][SELF_S]),
            "lattice.oracle.ns_per_query": ns_per(ORACLE),
            "lattice.oracle.tally_gap": per_rep(self.tally_gap),
            "solvers.solve.runs": per_rep(stats[SOLVE][CALLS]),
            "solvers.solve.self_s": per_rep(stats[SOLVE][SELF_S]),
            "solvers.solve.run_s_p50": percentile(self.run_seconds, 50),
            "solvers.solve.run_s_tail": tail_s,
            "solvers.solve.run_s_tail_pct": tail_pct,
            "solvers.solve.run_s_tail_n": len(self.run_seconds),
            "solvers.step_search.calls": per_rep(steps[CALLS]),
            "solvers.step_search.self_s": per_rep(steps[SELF_S]),
            "solvers.step_search.queries_per_call": ratio(steps[QUERIES], steps[CALLS]),
            "solvers.step_search.accept_ratio": ratio(steps[WORK], steps[CALLS]),
            "bench.instances.calls": per_rep(stats[INSTANCES][CALLS]),
            "bench.instances.self_s": per_rep(stats[INSTANCES][SELF_S]),
            "bench.csv.rows_written": per_rep(stats[CSV_WRITE][WORK]),
            "bench.csv.write_s": per_rep(stats[CSV_WRITE][SELF_S]),
            "bench.csv.rows_read": per_rep(stats[CSV_READ][WORK]),
            "bench.csv.read_s": per_rep(stats[CSV_READ][SELF_S]),
            "report.calls": per_rep(stats[REPORT][CALLS]),
            "report.self_s": per_rep(stats[REPORT][SELF_S]),
            "trace.wall_s": wall,
            "trace.overhead_frac": wall / untraced_rep_s - 1.0,
            "trace.unattributed_s": per_rep(stats[WORKLOAD][SELF_S]),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
