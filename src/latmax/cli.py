"""Command line interface.

Subcommands:
  bench run    -- execute a benchmark grid and stream results to CSV
  bench check  -- acceptance criteria 1, 3 and 8 plus a t_bar spot value
  solve        -- run one algorithm on one generated instance, print a CSV row
  report tables -- aggregate a results CSV by (algorithm, n)
  report series -- write queries-vs-b_pivot plot data for one (n, r) slice
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from . import bench, checks, report, solvers


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
    p_run.set_defaults(func=_cmd_bench_run)

    p_check = bench_sub.add_parser("check", help="run the small-instance self-checks")
    p_check.set_defaults(func=_cmd_bench_check)

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
    p_solve.set_defaults(func=_cmd_solve)

    p_report = sub.add_parser("report", help="aggregate results")
    report_sub = p_report.add_subparsers(dest="report_command", required=True)

    p_tables = report_sub.add_parser("tables", help="per-(algorithm, n) means")
    p_tables.add_argument("--in", dest="csv_in", type=Path, required=True)
    p_tables.add_argument("--metric", choices=report.METRICS, required=True)
    p_tables.set_defaults(func=_cmd_report_tables)

    p_series = report_sub.add_parser("series", help="queries vs b_pivot plot data")
    p_series.add_argument("--in", dest="csv_in", type=Path, required=True)
    p_series.add_argument("--n", type=int, required=True)
    p_series.add_argument("--r", type=int, required=True)
    p_series.add_argument("--out", type=Path, required=True, help="output directory")
    p_series.set_defaults(func=_cmd_report_series)

    return parser


def _input_error(exc: ValueError) -> int:
    """Report a value that a config, instance or grid rejects as argparse reports its own."""
    print(f"latmax: error: {exc}", file=sys.stderr)
    return 2


def _cmd_bench_run(args) -> int:
    try:
        if args.grid is not None:
            grid = bench.parse_grid_file(args.grid)
        elif args.full_scale:
            grid = bench.full_scale_grid()
        else:
            grid = bench.ExperimentGrid()
    except ValueError as exc:
        return _input_error(exc)
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    args.out.mkdir(parents=True, exist_ok=True)
    out_csv = args.out / "results.csv"
    rows = bench.run_matrix(grid, algorithms, args.master_seed, out_csv,
                            workers=args.workers)
    print(f"wrote {out_csv}")
    print(report.render_rows(rows), end="")
    return 0


def _cmd_solve(args) -> int:
    try:
        if args.repeats < 1:
            raise ValueError("--repeats must be >= 1")
        instance = bench.generate_instance(args.n, args.r, args.b_pivot, args.seed)
        runs = []
        for offset in range(args.repeats):  # independent seeds, keep the best value
            config = solvers.AlgorithmConfig(epsilon=args.epsilon, seed=args.seed + offset,
                                             algorithm=args.algorithm,
                                             time_budget=args.timeout)
            runs.append((solvers.solve(instance, config), config))  # exact may refuse
    except ValueError as exc:
        return _input_error(exc)
    best, best_config = max(runs, key=lambda run: run[0].value)  # the first best
    record = bench.make_record(instance, args.b_pivot, best_config, best)
    csv.writer(sys.stdout, lineterminator="\n").writerow(bench.record_to_row(record))
    return 0


def _cmd_report_tables(args) -> int:
    records = bench.read_records(args.csv_in)
    rows, pivot = report.table_by_n(records, args.metric)
    print(pivot)
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


def _cmd_bench_check(_args) -> int:
    """The latmax.checks self-checks plus t_bar spot values; exits 1 on any failure."""
    results = [
        ("modular exactness vs brute force", *checks.deterministic_solvers_match_bruteforce()),
        ("binary search vs linear scan", *checks.step_search_matches_scan()),
        ("structure checkers", *checks.structure_checkers()),
        ("t_bar closed form", abs(solvers.t_bar(100, 50) - 7.177619674607526) < 1e-9
         and solvers.t_bar(5, 5) == 1.0, ""),
    ]
    for name, ok, detail in results:
        suffix = f"  ({detail})" if detail else ""
        print(f"[check] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return 0 if all(ok for _, ok, _ in results) else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
