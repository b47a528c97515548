#!/usr/bin/env python3
"""Run the desk-scale benchmark and drop tables + plot data in one go.

Equivalent to:

    latmax bench run --algorithms <names> --master-seed <seed> --out <dir>
    latmax report tables --in <dir>/results.csv --metric queries
    latmax report tables --in <dir>/results.csv --metric value
    latmax report series --in <dir>/results.csv --n 100 --r 50 --out <dir>

Stops at the first step that fails (its `latmax: error:` line is on stderr)
and exits with that step's status, so no table is printed from a partial CSV.

Takes under 5 s (2.8-4.0 s in three runs on a 2-CPU Xeon VM with Python 3.11
and numpy 2.4, default algorithms and seed).
"""

import argparse
from pathlib import Path

from latmax.cli import main as latmax


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("bench-out"))
    parser.add_argument("--master-seed", type=int, default=20240817)
    parser.add_argument("--algorithms", default="sgl,soma-dr-i,ssg,greedy")
    args = parser.parse_args()

    csv_path = str(args.out / "results.csv")
    steps = [(None, ["bench", "run", "--algorithms", args.algorithms,
                     "--master-seed", str(args.master_seed), "--out", str(args.out)])]
    steps += [(f"\n== mean {metric} by n ==",
               ["report", "tables", "--in", csv_path, "--metric", metric])
              for metric in ("queries", "value")]
    steps.append((None, ["report", "series", "--in", csv_path,
                         "--n", "100", "--r", "50", "--out", str(args.out)]))
    for heading, argv in steps:
        if heading:
            print(heading)
        status = latmax(argv)
        if status:
            return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
