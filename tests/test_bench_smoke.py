"""Smoke runs of the benchmark harness, so perfbench/ cannot rot unseen.

Runs one tiny block of a workload through perfbench/run.py and checks
that every response was correct.  Select them alone with `pytest -m bench`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.bench
def test_stage_tower_smoke_run_is_correct():
    result = _smoke_run("stage_tower")
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.bench
def test_window_sweep_smoke_run_is_correct():
    # checks the funcspace table shape and the boundary reports
    result = _smoke_run("window_sweep")
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.bench
def test_cold_cli_smoke_run_is_correct():
    # every verb in both formats, each through its own `python -m scottlab` process
    result = _smoke_run("cold_cli")
    assert result["correct"] is True
    assert result["failed"] == 0
