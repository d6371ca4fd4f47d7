"""Smoke tests of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import hostspeed
from checks import Checker, normal_form, paths_error
from workloads import WORKLOADS, blocks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = (ROOT / "tests" / "golden" / "table8.txt").read_text(encoding="utf-8")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def units(r: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in r["metrics"].items()}


def series_free(names: dict[str, str]) -> dict[str, str]:
    """Scaling-series names without their size, which smoke runs shrink."""
    return {re.sub(r"\.([wd])\d+$", r".\1N", k): v for k, v in names.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    r = result("--workload", workload, "--seed", "5", "--trace", "0")
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert units(r) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    a, b = (result("--workload", workload, "--seed", "5", "--trace", "1") for _ in range(2))
    assert a["correct"] and b["correct"]
    assert series_free(units(a)) == series_free({m["name"]: m["unit"] for m in SPEC["per_layer"]})

    def counts(r):
        return {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}

    assert counts(a) == counts(b)
    assert counts(a)["cli.output_bytes"] > 0


def test_the_seed_alone_fixes_the_requests():
    for w in WORKLOADS:
        first, again = (list(islice(blocks(w, 9), 3)) for _ in range(2))
        assert first == again
        assert list(islice(blocks(w, 10), 3)) != first


def test_scaled_times_use_the_references_around_each_request():
    assert hostspeed.scaled([1.0, 2.0], [1.0, 3.0, 1.0], 2.0) == [1.0, 2.0]
    assert hostspeed.loop_s() > 0


def test_checker_rejects_wrong_answers():
    check = Checker(GOLDEN)
    assert check(["table8", "--window", "5"], 0, GOLDEN, "") is None
    assert check(["table8", "--window", "5"], 0, GOLDEN.replace("applicable ", "unknown    ", 1), "")
    assert check(["table8", "--window", "5"], 2, GOLDEN, "")
    assert check(["pipeline", "--window", "5"], 0, "dualization: ...\n\n" + GOLDEN, "") is None
    assert check(["limit", "--depth", "9"], 0, "standard: ω+1+ω*\n", "") is None
    assert check(["limit", "--depth", "9"], 0, "standard: ω+1\n", "")
    assert check(["stage", "--n", "3"], 0, "00 01 11\n", "") is None
    assert check(["stage", "--n", "3"], 0, "00 10 11\n", "")
    assert check(["adjunction", "--cpo", "lambda", "--window", "4", "--format", "json"], 0,
                 '{"cpo":"lambda","window":4,"passed":true}', "")
    assert check(["boundary", "--cpo", "v", "--format", "json"], 0, '{"cpo":"v","label":"m"}', "")
    assert check(["stage", "--n", "3", "--format", "json"], 0, '{"n":3', "")
    assert check(["funcspace", "--cpo", "v", "--table"], 0, "v: ...\ncolumns: a b\nx 01\ny 10\n", "")
    assert check(["funcspace", "--cpo", "v", "--table"], 0, "v: no table\n", "")
    assert check(["adjunction", "--cpo", "v", "--window", "4", "--format", "json"], 0, '{"cpo":"v"}', "")
    assert check(["iso", "--a", "1+w", "--b", "w"], 0, "not isomorphic: 1+ω vs ω\n", "")
    assert check(["compare", "--cpo", "v", "--x=-2", "--y=+1"], 0, "-2 > +1\n", "")
    assert check(["ep", "--n", "5", "--check"], 0,
                 "e: 0->0 1->1 2->2 3->4 4->5\np: 0->0 1->1 2->2 3->2 4->3 5->4\nlaws: ok\n", "") is None
    assert check(["ep", "--n", "5", "--check"], 0,
                 "e: 0->0 1->1 2->3 3->4 4->5\np: 0->0 1->1 2->2 3->2 4->3 5->4\nlaws: ok\n", "")
    assert check(["ep", "--n", "5", "--check"], 0,
                 "e: 0->0 1->1 2->2 3->4 4->5\np: 0->0 1->1 2->2 3->2 4->3 5->4\n", "")
    assert check(["ep", "--scheme", "alternative", "--n", "2", "--format", "json"], 0,
                 '{"scheme":"alternative","n":2,"e":[0,1],"p":[0,1,1],"laws":{"p_after_e_is_id":true,'
                 '"e_after_p_below_id":true,"e_monotone":true,"p_monotone":true,"ok":true,"witness":null}}',
                 "") is None
    assert check(["ep", "--scheme", "alternative", "--n", "2", "--format", "json"], 0,
                 '{"scheme":"alternative","n":2,"e":[0,1],"p":[0,0,1],"laws":{}}', "")
    assert check(["funcs", "--m", "3"], 0, "000 001 011 111\n", "") is None
    assert check(["funcs", "--m", "3"], 0, "000 001 011 101 111\n", "")
    assert check(["mu", "--map", "10"], 0, "not continuous (not monotone)\n", "") is None
    assert check(["mu", "--map", "10"], 0, "continuous\n", "")
    assert paths_error("standard", 3, [[0, 0, 0], [0, 0, 1], [0, 1, 2]]) is None
    assert paths_error("alternative", 3, [[0, 0, 0], [0, 1, 1], [0, 1, 2]]) is None
    assert paths_error("alternative", 3, [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
    assert paths_error("standard", 3, [[0, 0, 0], [0, 1, 2]])
    assert normal_form("1+1+w+w*+2+w") == "ω+ω*+ω"


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "cold_cli", "--seed", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
