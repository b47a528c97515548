#!/usr/bin/env python3
"""latmax benchmark: run one workload, measure it and check its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload ssg-desk --seed 20240817 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in its own interpreter

``--trace 0`` measures the end-to-end metrics with no timers installed.
``--trace 1`` runs the workload untraced for a third of the window, then with
per-layer timers for the rest, and reports the per-layer metrics; its spans
go to ``perfbench/out/``.  Both modes repeat the workload until ``--seconds``
have passed, report medians, and check every repetition's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 20240817  # the ROADMAP master seed
DEFAULT_SECONDS = 30
WORKLOADS = ("ssg-desk", "threshold-desk", "sqrt-library")
SETUP_PROBES = 5  # at least this many set-up samples per run
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "queries_total": "count",
    "value_ratio_mean": "ratio",
    "value_ratio_min": "ratio",
}
PER_LAYER_UNITS = {
    "lattice.objective.points": "count",
    "lattice.objective.self_s": "s",
    "lattice.objective.ns_per_point": "ns",
    "lattice.oracle.queries": "count",
    "lattice.oracle.self_s": "s",
    "lattice.oracle.ns_per_query": "ns",
    "lattice.oracle.tally_gap": "count",
    "solvers.solve.runs": "count",
    "solvers.solve.self_s": "s",
    "solvers.solve.run_s_p50": "s",
    "solvers.solve.run_s_tail": "s",
    "solvers.solve.run_s_tail_pct": "%",
    "solvers.solve.run_s_tail_n": "count",
    "solvers.step_search.calls": "count",
    "solvers.step_search.self_s": "s",
    "solvers.step_search.queries_per_call": "queries/call",
    "solvers.step_search.accept_ratio": "ratio",
    "bench.instances.calls": "count",
    "bench.instances.self_s": "s",
    "bench.csv.rows_written": "count",
    "bench.csv.write_s": "s",
    "bench.csv.rows_read": "count",
    "bench.csv.read_s": "s",
    "report.calls": "count",
    "report.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "host.calib_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    return args


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a record of host speed."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _child_cmd(workload: str, seed: int, *extra) -> list:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from interpreter launch to the workload's inputs being built."""
    start = time.perf_counter()
    with subprocess.Popen(_child_cmd(workload, seed, "--setup-probe"),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready - start


class Rep:
    """One repetition of a workload: wall time and checked outcome."""

    def __init__(self, wall_s, outcome=None, error=None):
        self.wall_s = wall_s
        self.outcome = outcome
        self.error = error


def run_reps(workload, workdir, seconds: float, tracer=None, between=None) -> list:
    """Repeat the workload until seconds have passed (at least once).

    between() runs untimed after each repetition.
    """
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                product = workload.run(workdir)
            else:
                with tracer.repetition(workload=workload.name, seed=workload.seed,
                                       rep=len(tracer.rep_seconds)):
                    product = workload.run(workdir)
        except Exception as exc:  # the repetition fails; later ones still run
            reps.append(Rep(time.perf_counter() - t0, error=repr(exc)))
        else:
            wall = time.perf_counter() - t0
            try:
                reps.append(Rep(wall, outcome=workload.outcome(product)))
            except Exception as exc:
                reps.append(Rep(wall, error=f"output unreadable: {exc!r}"))
        if between is not None:
            between()
    return reps


def check_reps(workload, reps, expected_digest) -> tuple:
    """(attempted, failed, problems) over all repetitions."""
    per_rep = workload.runs_per_rep
    reference_digest = expected_digest
    if reference_digest is None:
        reference_digest = next((rep.outcome.digest for rep in reps if rep.outcome), None)
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        attempted += per_rep
        if rep.error is not None:
            failed += per_rep
            problems.append(f"rep {index}: {rep.error}")
            continue
        outcome = rep.outcome
        whole = list(outcome.problems)
        if outcome.digest != reference_digest:
            whole.append(f"digest {outcome.digest} != {reference_digest}")
        if whole:
            failed += per_rep
            problems += [f"rep {index}: {p}" for p in whole]
            continue
        bad = [run for run in outcome.runs if run.problem]
        failed += len(bad)
        problems += [f"rep {index}: {run.algorithm}: {run.problem}" for run in bad]
    return attempted, failed, problems


def end_to_end_metrics(reps, setup_samples) -> tuple:
    """(metrics, diagnostics) from untraced repetitions."""
    runs = next((rep.outcome.runs for rep in reps if rep.outcome), [])
    ratios = [run.value / run.optimum for run in runs if not run.problem]
    wall = statistics.median(rep.wall_s for rep in reps)
    queries = sum(run.queries for run in runs)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "queries_per_s": queries / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queries_total": queries,
        "value_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "value_ratio_min": min(ratios) if ratios else 0.0,
    }
    diagnostics = {
        "stalled_frac": sum(run.stalled for run in runs) / len(runs) if runs else 0.0,
        "runs_per_rep": len(runs),
    }
    return metrics, diagnostics


def expected_digest(workload: str, seed: int):
    """The digest recorded in expected.json for this workload and seed, or None."""
    return json.loads(EXPECTED.read_text())["digests"].get(str(seed), {}).get(workload)


def print_metrics(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value!r} {units[name]}")


def run_one(args) -> int:
    import numpy
    import tracing
    import workloads

    calib_s = calibrate()
    workload = workloads.build(args.workload, args.seed)
    workload.prepare()
    expected = expected_digest(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if not args.trace:
            # Set-up is probed in fresh interpreters between repetitions, so
            # its samples see the same host as the timed repetitions.  The
            # first probe is untimed: it fills the bytecode cache, which
            # users pay once.
            probe_setup(args.workload, args.seed)
            setup_samples = []

            def probe():
                setup_samples.append(probe_setup(args.workload, args.seed))

            reps = run_reps(workload, workdir, args.seconds, between=probe)
            while len(setup_samples) < SETUP_PROBES:
                probe()
            traced = []
        else:
            reps = run_reps(workload, workdir, args.seconds / 3)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_reps(workload, workdir, args.seconds * 2 / 3, tracer)
            finally:
                tracer.uninstall()
    attempted, failed, problems = check_reps(workload, reps + traced, expected)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(reps)} untraced + {len(traced)} traced")
    print(f"  host: nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  host.calib_s {calib_s!r} s")
    digest = next((rep.outcome.digest for rep in reps if rep.outcome), None)
    state = "no digest recorded for this seed" if expected is None else (
        "matches expected.json" if digest == expected else "DOES NOT MATCH expected.json")
    print(f"  digest {digest} ({state})")
    if args.trace:
        metrics = tracer.layer_metrics(statistics.median(rep.wall_s for rep in reps))
        metrics["host.calib_s"] = calib_s
        for line in tracer.absent:
            print(f"  layer absent: {line}")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print_metrics(metrics, PER_LAYER_UNITS)
    else:
        metrics, diagnostics = end_to_end_metrics(reps, setup_samples)
        print_metrics(metrics, END_TO_END_UNITS)
        print(f"  stalled_frac      {diagnostics['stalled_frac']!r} ratio")
        print(f"  failed_frac       {failed / attempted!r} ratio")
        print(f"  rep wall_s        {' '.join(f'{rep.wall_s:.4f}' for rep in reps)} s; "
              f"{diagnostics['runs_per_rep']} runs per rep")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value,
                                         "unit": (PER_LAYER_UNITS if args.trace
                                                  else END_TO_END_UNITS)[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(exit code, human-readable lines, result dict or None) of one workload run."""
    cmd = _child_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, lines + proc.stderr.splitlines(), None
    return proc.returncode, lines[:-1], result


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, lines, result = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            print(f"  FAILED {name}: exit code {code} and no result")
            ok = False
            continue
        ok = ok and code == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    combined["correct"] = ok
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latmax" / "__init__.py").is_file():
        print(f"error: latmax sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
