"""Command line interface.

Subcommands:
  bench run    -- execute a benchmark grid and stream results to CSV
  bench check  -- quick self-checks of the solver stack against oracles
  solve        -- run one algorithm on one generated instance, print a CSV row
  report tables -- aggregate a results CSV by (algorithm, n)
  report series -- write queries-vs-b_pivot plot data for one (n, r) slice
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import sys
from pathlib import Path

import numpy as np

from . import bench, lattice, report, solvers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latmax")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="benchmark harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="run a benchmark grid")
    p_run.add_argument("--grid", type=Path, default=None,
                       help="key=value grid file (default: built-in desk grid)")
    p_run.add_argument("--algorithms", default="sgl,soma-dr-i,ssg,greedy",
                       help="comma-separated algorithm names")
    p_run.add_argument("--master-seed", type=int, required=True)
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--full-scale",
                       action="store_true",
                       help="use the full-scale grid defaults (n up to 750)")

    bench_sub.add_parser("check", help="run the small-instance oracle suites")

    p_solve = sub.add_parser("solve", help="one-off run on a generated instance")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--r", type=int, required=True)
    p_solve.add_argument("--b-pivot", type=int, required=True)
    p_solve.add_argument("--algorithm", required=True, choices=solvers.ALGORITHMS)
    p_solve.add_argument("--seed", type=int, required=True)
    p_solve.add_argument("--epsilon", type=float, default=None)
    p_solve.add_argument("--timeout", type=float, default=None)
    p_solve.add_argument("--repeats", type=int, default=1,
                         help="independent runs (seed, seed+1, ...); best row printed")

    p_report = sub.add_parser("report", help="aggregate results")
    report_sub = p_report.add_subparsers(dest="report_command", required=True)

    p_tables = report_sub.add_parser("tables", help="per-(algorithm, n) means")
    p_tables.add_argument("--in", dest="csv_in", type=Path, required=True)
    p_tables.add_argument("--metric", choices=report.METRICS, required=True)

    p_series = report_sub.add_parser("series", help="queries vs b_pivot plot data")
    p_series.add_argument("--in", dest="csv_in", type=Path, required=True)
    p_series.add_argument("--n", type=int, required=True)
    p_series.add_argument("--r", type=int, required=True)
    p_series.add_argument("--out", type=Path, required=True, help="output directory")

    return parser


def _cmd_bench_run(args) -> int:
    if args.grid is not None:
        grid = bench.parse_grid_file(args.grid)
    elif args.full_scale:
        grid = bench.full_scale_grid()
    else:
        grid = bench.ExperimentGrid()
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    args.out.mkdir(parents=True, exist_ok=True)
    out_csv = args.out / "results.csv"
    rows = bench.run_matrix(grid, algorithms, args.master_seed, out_csv,
                            workers=args.workers)
    print(f"wrote {out_csv}")
    print(report.render_rows(rows), end="")
    return 0


def _cmd_solve(args) -> int:
    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    instance = bench.generate_instance(args.n, args.r, args.b_pivot, args.seed)
    best = best_config = None
    for offset in range(args.repeats):  # independent seeds, keep the best value
        config = solvers.AlgorithmConfig(epsilon=args.epsilon, seed=args.seed + offset,
                                         algorithm=args.algorithm,
                                         time_budget=args.timeout)
        sol = solvers.solve(instance, config)
        if best is None or sol.value > best.value:
            best, best_config = sol, config
    record = bench.make_record(instance, args.b_pivot, best_config, best)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(bench.record_to_row(record))
    print(buf.getvalue(), end="")
    return 0


def _cmd_report_tables(args) -> int:
    records = bench.read_records(args.csv_in)
    rows, pivot = report.table_by_n(records, args.metric)
    print(pivot, end="")
    print()
    print(report.render_rows(rows), end="")
    return 0


def _cmd_report_series(args) -> int:
    records = bench.read_records(args.csv_in)
    series = report.series_queries_vs_b(records, args.n, args.r)
    args.out.mkdir(parents=True, exist_ok=True)
    out_file = args.out / f"queries_vs_b_n{args.n}_r{args.r}.dat"
    out_file.write_text(report.render_series(series, args.n, args.r))
    print(f"wrote {out_file}")
    return 0


def _check_line(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[check] {name}: {status}{suffix}")
    return ok


def _cmd_bench_check() -> int:
    """Small-instance oracle suites; exits nonzero on any failure."""
    ok = True
    rng = np.random.Generator(np.random.PCG64(7))

    # threshold and unit-step greedy match exact enumeration on modular f
    agree = 0
    trials = 40
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        instance = lattice.ProblemInstance(
            n=n,
            b=rng.integers(1, 4, size=n),
            r=int(rng.integers(1, 7)),
            objective=lattice.weighted_linear(rng.integers(1, 101, size=n)),
        )
        # epsilon small enough that the threshold floor sits below every weight
        config = solvers.AlgorithmConfig(epsilon=0.01)
        opt = solvers.exact_bruteforce(instance).value
        if solvers.soma_dr_i(instance, config).value == opt and \
           solvers.greedy_lattice(instance, config).value == opt:
            agree += 1
    ok &= _check_line("modular exactness vs brute force", agree == trials,
                      f"{agree}/{trials} agree")

    # binary-searched steps match a linear scan on diminishing-returns f
    matches = 0
    trials = 300
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        w = rng.integers(1, 101, size=n)
        objective = (lattice.weighted_linear(w) if rng.integers(2) == 0
                     else lattice.weighted_concave_sqrt(w))
        x = rng.integers(0, 4, size=n).astype(np.int64)
        e = int(rng.integers(n))
        k_max = int(rng.integers(0, 9))
        theta = float(rng.uniform(0.1, 120.0))
        oracle = lattice.CountingOracle(objective)
        fx = objective(x)
        hit = solvers.max_feasible_step(oracle, x, e, k_max, theta, fx=fx)
        best = None
        for k in range(1, k_max + 1):
            y = x.copy()
            y[e] += k
            if objective(y) - fx >= k * theta:
                best = k
        got = None if hit is None else hit[0]
        matches += got == best
    ok &= _check_line("binary search vs linear scan", matches == trials,
                      f"{matches}/{trials} agree")

    # structure checkers accept the built-ins and reject a planted bad input
    w = np.array([4, 9, 25], dtype=np.int64)
    box = (3, 3, 3)
    good = all(fn(obj, box)[0]
               for obj in (lattice.weighted_linear(w), lattice.weighted_concave_sqrt(w))
               for fn in (lattice.check_monotone, lattice.check_dr_submodular,
                          lattice.check_lattice_submodular))
    bad_dr, cex = lattice.check_dr_submodular(lattice.coordinate_product(2), (2, 2))
    ok &= _check_line("structure checkers", good and not bad_dr and cex is not None)

    # sample-coverage factor: spot values of the closed form
    spot = abs(solvers.t_bar(100, 50) - 7.177619674607526) < 1e-9 and \
        solvers.t_bar(5, 5) == 1.0
    ok &= _check_line("t_bar closed form", spot)

    return 0 if ok else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    if args.command == "bench":
        if args.bench_command == "run":
            return _cmd_bench_run(args)
        return _cmd_bench_check()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "report":
        if args.report_command == "tables":
            return _cmd_report_tables(args)
        return _cmd_report_series(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
