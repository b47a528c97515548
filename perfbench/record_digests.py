#!/usr/bin/env python3
"""Record the expected output digests of every workload into expected.json.

Run from the repository root:

    python3 perfbench/record_digests.py

Runs each workload once per recorded seed (the ROADMAP master seed and seeds
0-31), checks its outputs, and writes the digests.  Only a change that is
meant to alter query counts or trajectories should re-record them.
"""

import json
import sys
import tempfile

import run

SEEDS = [run.DEFAULT_SEED] + list(range(32))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    digests = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for seed in SEEDS:
            digests[str(seed)] = {}
            for name in run.WORKLOADS:
                workload = workloads.build(name, seed)
                workload.prepare()
                outcome = workload.outcome(workload.run(workdir))
                problems = outcome.problems + [r.problem for r in outcome.runs if r.problem]
                if problems:
                    print(f"{name} seed {seed}: {problems[0]}", file=sys.stderr)
                    return 1
                digests[str(seed)][name] = outcome.digest
            print(seed, digests[str(seed)], flush=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
