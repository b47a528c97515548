"""Tests of the benchmark's own parts: reference optima, timers, metric tables.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latmax import (AlgorithmConfig, ProblemInstance, exact_bruteforce, lattice,  # noqa: E402
                    sgl, solvers, weighted_concave_sqrt, weighted_linear)

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _random_instance(rng, make_objective):
    n = int(rng.integers(1, 6))
    return ProblemInstance(n=n, b=rng.integers(1, 4, size=n), r=int(rng.integers(1, 8)),
                           objective=make_objective(rng.integers(1, 101, size=n)))


@pytest.mark.parametrize("make_objective,optimum_of", [
    (weighted_linear, reference.linear_optimum),
    (weighted_concave_sqrt, reference.sqrt_optimum),
])
def test_reference_optimum_matches_bruteforce(make_objective, optimum_of):
    rng = np.random.Generator(np.random.PCG64(20240817))
    for _ in range(300):
        instance = _random_instance(rng, make_objective)
        x, value = optimum_of(instance.objective.weights, instance.b, instance.r)
        assert instance.is_feasible(x)
        assert math.isclose(value, instance.objective(x), rel_tol=reference.REL_TOL)
        best = exact_bruteforce(instance).value
        assert not reference.exceeds(value, best)
        assert not reference.falls_short(value, best)
        assert reference.optimum(instance) == value


def test_reference_rejects_custom_objectives():
    instance = ProblemInstance(n=2, b=np.array([1, 1]), r=1,
                               objective=lattice.custom_objective(2, lambda x: 0.0))
    with pytest.raises(ValueError):
        reference.optimum(instance)


def test_tail_percentile_keeps_ten_samples_above():
    samples = list(range(100))
    assert tracing.tail_percentile(samples) == (90, 89)
    assert sum(s > 89 for s in samples) == 10
    assert tracing.tail_percentile(list(range(558)))[0] == 98
    assert tracing.tail_percentile([3.0, 1.0]) == (0, 1.0)
    assert tracing.percentile([4, 1, 3, 2], 50) == 2


def _traced_solve(tracer):
    instance = ProblemInstance(n=30, b=np.full(30, 4), r=40,
                               objective=weighted_concave_sqrt(np.arange(1, 31)))
    tracer.install()
    try:
        with tracer.repetition(workload="test"):
            sol = solvers.solve(instance, AlgorithmConfig(seed=3))
    finally:
        tracer.uninstall()
    return sol


def test_self_times_add_up_and_queries_tally():
    tracer = tracing.Tracer()
    sol = _traced_solve(tracer)
    metrics = tracer.layer_metrics(untraced_rep_s=tracer.rep_seconds[0])
    self_total = sum(stats[tracing.SELF_S] for stats in tracer.stats.values())
    assert math.isclose(self_total, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["lattice.oracle.queries"] == sol.queries
    assert metrics["lattice.oracle.tally_gap"] == 0
    assert metrics["solvers.solve.runs"] == 1
    assert metrics["solvers.step_search.calls"] > 0
    assert [span["name"] for span in tracer.spans] == [tracing.WORKLOAD, tracing.SOLVE]
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]


def test_uninstall_restores_entry_points():
    before = (lattice.Objective.__call__, lattice.CountingOracle.evaluate_stepped,
              solvers.max_feasible_step, solvers.solve)
    _traced_solve(tracing.Tracer())
    assert (lattice.Objective.__call__, lattice.CountingOracle.evaluate_stepped,
            solvers.max_feasible_step, solvers.solve) == before


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        (tracing.SOLVE, "latmax.solvers", None, "no_such_solver", tracing._one),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["solvers.solve: latmax.solvers.no_such_solver"]


def test_untraced_calls_pass_through():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sgl(ProblemInstance(n=3, b=np.array([2, 2, 2]), r=3,
                            objective=weighted_linear([1, 2, 3])), AlgorithmConfig())
    finally:
        tracer.uninstall()
    assert all(stats[tracing.CALLS] == 0 for stats in tracer.stats.values())


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
