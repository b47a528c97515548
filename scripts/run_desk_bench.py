#!/usr/bin/env python3
"""Run the desk-scale benchmark and drop tables + plot data in one go.

Equivalent to:

    latmax bench run --master-seed <seed> --out <dir> [--workers N]
    latmax report tables --in <dir>/results.csv --metric queries
    latmax report tables --in <dir>/results.csv --metric value
    latmax report series --in <dir>/results.csv --n 100 --r 50 --out <dir>

Takes under 10 s single-threaded (7.3-9.4 s measured on a 2-CPU Xeon VM
with Python 3.11 and numpy 2.4, default algorithms and seed).
"""

import argparse
from pathlib import Path

from latmax.cli import main as latmax


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("bench-out"))
    parser.add_argument("--master-seed", type=int, default=20240817)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--algorithms", default="sgl,soma-dr-i,ssg,greedy")
    args = parser.parse_args()

    csv_path = args.out / "results.csv"
    latmax(["bench", "run", "--algorithms", args.algorithms,
            "--master-seed", str(args.master_seed), "--out", str(args.out),
            "--workers", str(args.workers)])
    for metric in ("queries", "value"):
        print(f"\n== mean {metric} by n ==")
        latmax(["report", "tables", "--in", str(csv_path), "--metric", metric])
    latmax(["report", "series", "--in", str(csv_path),
            "--n", "100", "--r", "50", "--out", str(args.out)])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
