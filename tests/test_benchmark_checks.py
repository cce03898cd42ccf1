"""The benchmark's independent report checks hold on the library as it is.

``perfbench/checks.py`` recomputes each report from the model written out
apart from the program (closed forms, dense grids, ``scipy.stats``). The
benchmark runs these checks only after its timed loop; here every job of
its ``fixtures`` and ``games`` rounds (seed 1) runs in-process through
``cli.main``, so a change that breaks a report fails the suite at once.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from epicost.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scenarios, checks = load("scenarios"), load("checks")


@pytest.mark.parametrize("workload", ["fixtures", "games"])
def test_every_job_passes_its_checks(workload, tmp_path):
    jobs = scenarios.make_jobs(workload, SEED, ROOT / "src", tmp_path / "scenarios")
    assert jobs
    problems = []
    for job in jobs:
        out = tmp_path / "out" / job.name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(job.argv(out)) == 0, job.name
        scenario = json.loads(job.config.read_text())
        problems += [f"{job.name}: {p}" for p in checks.check(
            job.command, out / job.report, scenario, SEED, job.extra)]
    assert problems == []
