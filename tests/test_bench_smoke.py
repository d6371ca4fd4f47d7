"""Smoke run of the benchmark harness, so perfbench/ cannot rot unseen.

Runs one tiny stage_tower block through perfbench/run.py and checks
that every response was correct.  Select it alone with `pytest -m bench`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.bench
def test_stage_tower_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stage_tower", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
