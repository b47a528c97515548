#!/usr/bin/env python3
"""Measure a baseline: every workload end to end, then traced, at one seed.

Run from the repository root:

    python3 perfbench/record_baseline.py [--seed 20240817] [--seconds 20]

Each workload runs in its own interpreter through ``run.py``.  The result,
with the host's CPU count and the Python and numpy versions, is written to
``perfbench/baseline.json``.  Exits nonzero if any output check fails.
"""

import argparse
import json
import os
import platform
import sys

import numpy

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = parser.parse_args(argv)

    baseline = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "workloads": {},
    }
    ok = True
    for name in run.WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run.run_child(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            if result is None or code != 0 or not result["correct"]:
                print(f"FAILED {name} trace {trace}: exit code {code}", file=sys.stderr)
                ok = False
                continue
            entry[key] = {metric: v["value"] for metric, v in result["metrics"].items()}
            entry["digest"] = next(line.split()[1] for line in lines
                                   if line.strip().startswith("digest "))
        baseline["workloads"][name] = entry
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
