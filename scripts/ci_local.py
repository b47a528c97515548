#!/usr/bin/env python3
"""Run the steps of the tier-1 CI workflow locally, in order, without a network.

Reads .github/workflows/tier1.yml with PyYAML and runs each ``run:`` step of
its job through ``bash -e`` from the root of the repository, with the
workflow's, the job's and the step's ``env`` added to this process's
environment.  The workflow stays the one source of the steps: the runner adds
no check and drops none, except the two steps that install with pip, which it
skips and says why.  It prints each step's exit status and time, and exits 1
if a step that ran failed.

    python3 scripts/ci_local.py

The steps run with the packages that are installed, not the workflow's pinned
ones; the Versions step prints what they are.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# step name -> why the step is not run; every other run: step is
SKIPPED = {
    "Install dependencies":
        "pip install fetches the pinned packages from the package index; "
        "the steps run with the installed ones",
    "Installed package and console script":
        "pip install builds the package, whose build needs setuptools>=68 "
        "(pyproject.toml) from the package index",
}


def plan() -> list:
    """(name, script, env, skip reason or None) of every run: step, in order."""
    spec = yaml.safe_load(WORKFLOW.read_text())
    steps = []
    for job in spec["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                env = {**spec.get("env", {}), **job.get("env", {}), **step.get("env", {})}
                steps.append((step["name"], step["run"], {k: str(v) for k, v in env.items()},
                              SKIPPED.get(step["name"])))
    return steps


def main() -> int:
    failed = []
    for name, script, env, skip in plan():
        if skip:
            print(f"== {name}: skipped ({skip})", flush=True)
            continue
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        status = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT,
                                env={**os.environ, **env}).returncode
        print(f"== {name}: exit {status} in {time.perf_counter() - start:.1f} s", flush=True)
        if status:
            failed.append(name)
    if failed:
        print(f"failed steps: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
