"""scripts/ci_local.py plans every step of the tier-1 workflow but the pip installs."""

import importlib.util
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def test_ci_runner_plans_every_step_but_the_pip_installs():
    # reads the runner's plan only and runs no step, so it cannot recurse into
    # pytest; a step added to the workflow is planned unless it installs with pip
    spec = importlib.util.spec_from_file_location("ci_local", ROOT / "scripts" / "ci_local.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    planned = runner.plan()
    assert [(name, script) for name, script, _, _ in planned] == \
        [(step["name"], step["run"]) for step in steps]
    for step, (name, _, env, skip) in zip(steps, planned):
        assert (skip is not None) == ("pip install" in step["run"]), name
        assert all(env[key] == str(value) for key, value in step.get("env", {}).items())
    assert sum(skip is not None for *_, skip in planned) == len(runner.SKIPPED) == 2
