"""Smoke run of tools/cli_digest.py, the per-verb digest of the CLI's answers used to compare checkouts."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
VERBS = ["string approx", "string limit", "limit", "fpt", "funcspace", "adjunction", "boundary",
         "table8", "pipeline", "lcr backward", "lcr forward", "decompose", "replicate", "cpo", "compare",
         "neighbors", "stage", "funcs", "mu", "ep", "paths", "diagram", "normalize", "iso", "string realize",
         "string opp", "string opp-pair", "string lr", "string lr-pair", "string classify", "usage"]


def test_prints_one_digest_per_verb_and_a_total():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [re.fullmatch(r"([0-9a-f]{64})  ([ \d]{5})  (.+)", line) for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [m[3] for m in rows] == VERBS + ["total"]
    assert all(int(m[2]) > 0 for m in rows[:-1])
