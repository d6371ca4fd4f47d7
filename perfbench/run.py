#!/usr/bin/env python3
"""scottlab benchmark: three seeded closed-loop workloads with one client.

    python3 perfbench/run.py --workload {cold_cli,window_sweep,stage_tower,all}
                             --seed N --seconds S --trace {0,1} [--smoke]

--trace 0 measures the end-to-end metrics: requests go through the
user-facing entry points (a `python -m scottlab` subprocess per request
for cold_cli, `scottlab.cli.run(argv)` with stdout captured for the
others) until S seconds have passed and at least MIN_REQUESTS requests
are done, always finishing the current block.  Every request is
bracketed by host-speed reference samples, and its time is scaled by
them (see hostspeed.py).  --trace 1 runs the first block once untraced
and once traced, then the scaling series, and reports per-layer
metrics.  Every response is checked against an
expectation computed by checks.py; failures are logged to stderr.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run records and span files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from checks import Checker, paths_error
from workloads import WORKLOADS, blocks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "table8.txt"
OUT = HERE / "out"

MIN_REQUESTS = 100          # the p90 needs ten samples beyond it
START_SAMPLES = 5           # fresh interpreters at the start of a run
SERIES_SIZES = {False: (25, 50, 100, 200), True: (4, 8, 16, 32)}

# the reference loop runs after the import, three times, and the median is kept
SETUP_CODE = ("import time; t = time.perf_counter(); import scottlab.cli as c; "
              "c.build_parser(); t = time.perf_counter() - t; import sys, statistics; "
              f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
              "print(t, statistics.median(hostspeed.loop_s() for _ in range(3)))")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def wall(cmd: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)
    return time.perf_counter() - t, proc


def bare_start_ms(env: dict[str, str], samples: int) -> float:
    return statistics.median(wall([sys.executable, "-c", "pass"], env)[0] for _ in range(samples)) * 1e3


def import_ms(env: dict[str, str], samples: int) -> float:
    """Median start with `import scottlab.cli` minus median bare start, interleaved."""
    bare, imported = [], []
    for _ in range(samples):
        bare.append(wall([sys.executable, "-c", "pass"], env)[0])
        imported.append(wall([sys.executable, "-c", "import scottlab.cli"], env)[0])
    return (statistics.median(imported) - statistics.median(bare)) * 1e3


def setup_sample(env: dict[str, str]) -> tuple[float, float]:
    """Seconds to import scottlab.cli and build its parser, timed inside a fresh child,
    and that child's reference-loop time."""
    proc = wall([sys.executable, "-c", SETUP_CODE], env)[1]
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.decode(errors='replace')}")
    setup, ref = map(float, proc.stdout.split())
    return setup, ref


# -- requests ----------------------------------------------------------------


def cold_runner(env: dict[str, str]):
    def run(argv: list[str]):
        dt, proc = wall([sys.executable, "-m", "scottlab", *argv], env)
        return dt, proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    return run


def inprocess_runner(cli):
    def run(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            rc = cli.run(argv)
            dt = time.perf_counter() - t
        return dt, rc, out.getvalue(), err.getvalue()
    return run


class Tally:
    """Responses attempted and the failing ones, each logged as it happens."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, argv: list[str], rc: int, out: str, err: str) -> None:
        self.attempted += 1
        reason = self.checker(argv, rc, out, err)
        if reason:
            self.fail(shlex.join(["scottlab", *argv]), reason)

    def fail(self, what: str, reason: str) -> None:
        self.failures.append({"request": what, "reason": reason})
        print(f"FAIL {what}: {reason}", file=sys.stderr)


def closed_loop(requests, runner, tally: Tally, reference) -> tuple[list[float], list[float]]:
    """Wall times of the requests, and reference samples: one before and one after each."""
    latencies, refs = [], [reference()]
    for argv in requests:
        dt, rc, out, err = runner(argv)
        refs.append(reference())
        latencies.append(dt)
        tally.check(argv, rc, out, err)
    return latencies, refs


def timed_blocks(workload: str, seed: int, seconds: float, min_requests: int, smoke: bool,
                 runner, tally: Tally, reference, nominal: float,
                 after_block) -> tuple[list[float], list[float], list[float]]:
    """Whole blocks until the time is up and enough requests are done.

    Returns the wall times, the scaled times and the reference samples."""
    latencies: list[float] = []
    scaled: list[float] = []
    refs: list[float] = []
    t0 = time.perf_counter()
    for block in blocks(workload, seed, smoke):
        block_latencies, block_refs = closed_loop(block, runner, tally, reference)
        latencies += block_latencies
        scaled += hostspeed.scaled(block_latencies, block_refs, nominal)
        refs += block_refs
        if time.perf_counter() - t0 >= seconds and len(latencies) >= min_requests:
            return latencies, scaled, refs
        after_block()


def latency_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "throughput_rps": (len(ms) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (ms[math.ceil(0.9 * len(ms)) - 1], "ms"),
    }


def end_to_end(workload: str, args, env, cli, tally: Tally, record: dict) -> dict[str, tuple[float, str]]:
    samples = 1 if args.smoke else START_SAMPLES
    if workload == "cold_cli":
        runner = cold_runner(env)
        reference, nominal = (lambda: wall([sys.executable, "-c", "pass"], env)[0]), hostspeed.NOMINAL_START_S
    else:
        runner = inprocess_runner(cli)
        reference, nominal = hostspeed.loop_s, hostspeed.NOMINAL_LOOP_S
        record["bare_interpreter_ms"] = bare_start_ms(env, samples)
    # set-up samples at the start and after every block see the same host speed as the requests
    setup = [setup_sample(env) for _ in range(samples)]
    latencies, scaled, refs = timed_blocks(
        workload, args.seed, args.seconds, 1 if args.smoke else MIN_REQUESTS, args.smoke,
        runner, tally, reference, nominal, lambda: setup.append(setup_sample(env)))
    if workload == "cold_cli":
        record["bare_interpreter_ms"] = statistics.median(refs) * 1e3
    record["reference_ms"] = statistics.median(refs) * 1e3
    record["setup_samples"] = len(setup)
    record["setup_wall_s"] = statistics.median(s for s, _ in setup)
    record["wall"] = {k: v for k, (v, _) in latency_metrics(latencies).items()}
    record["latency_samples"] = len(latencies)
    record["latencies_ms"] = [x * 1e3 for x in latencies]
    record["scaled_ms"] = [x * 1e3 for x in scaled]
    record["error_rate"] = len(tally.failures) / tally.attempted
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    return {
        **latency_metrics(scaled),
        "setup_s": (statistics.median(s * hostspeed.NOMINAL_LOOP_S / r for s, r in setup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


# -- traced run ----------------------------------------------------------------


def slope(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling_series(sizes, checker: Checker, tally: Tally) -> dict[str, tuple[float, str]]:
    """One call per size straight into the layer, timed from outside, untraced."""
    from scottlab import adjunction, replication, stages
    from scottlab.stages import Scheme

    def ok_table8(rows, n):
        got = [[r.cpo, r.adjunction, r.fixed_point, r.boundary, r.order_type] for r in rows]
        return None if got == checker.table8_rows else "table8 rows differ from the golden file"

    series = (  # name, size letter, call, check of the result
        ("adjunction.check_ms", "w", lambda n: adjunction.check_adjunction("lambda_prime", n),
         lambda r, n: None if r.passed else "lambda_prime adjunction failed"),
        ("replication.table8_ms", "w", replication.table8, ok_table8),
        ("stages.paths_ms", "d", lambda n: stages.limit_paths(Scheme.STANDARD, n),
         lambda r, n: paths_error("standard", n, [p.entries for p in r])),
        ("stages.diagram_ms", "d", lambda n: stages.diagram_dot(Scheme.STANDARD, n),
         lambda r, n: None if r.count("rank=same;") == n else "wrong stage columns"),
    )
    out: dict[str, tuple[float, str]] = {}
    for name, letter, call, verify in series:
        times = []
        for n in sizes:
            t = time.perf_counter()
            result = call(n)
            times.append((time.perf_counter() - t) * 1e3)
            tally.attempted += 1
            reason = verify(result, n)
            if reason:
                tally.fail(f"{name} at {n}", reason)
            out[f"{name}.{letter}{n}"] = (times[-1], "ms")
        out[f"{name}.slope"] = (slope(sizes, times), "ratio")
    return out


def traced(workload: str, args, env, cli, tally: Tally, record: dict) -> dict[str, tuple[float, str]]:
    from layertrace import Tracer

    samples = 1 if args.smoke else START_SAMPLES
    record["bare_interpreter_ms"] = bare_start_ms(env, samples)
    cli_import_ms = import_ms(env, samples)
    requests = next(blocks(workload, args.seed, args.smoke))

    def scaled_total(runner) -> float:
        latencies, refs = closed_loop(requests, runner, tally, hostspeed.loop_s)
        return sum(hostspeed.scaled(latencies, refs, hostspeed.NOMINAL_LOOP_S))

    untraced_s = scaled_total(inprocess_runner(cli))

    tracer = Tracer()
    out_bytes = 0
    run = inprocess_runner(cli)

    def traced_runner(argv):
        nonlocal out_bytes
        tracer.request += 1
        dt, rc, out, err = run(argv)
        out_bytes += len(out.encode("utf-8"))
        return dt, rc, out, err

    tracer.install()
    try:
        traced_s = scaled_total(traced_runner)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}.spans.gz")
    record["spans"] = len(tracer.spans["function"])
    record["traced_requests"] = len(requests)

    layers = tracer.layer_totals()
    m: dict[str, tuple[float, str]] = {
        "cli.import_ms": (cli_import_ms, "ms"),
        "cli.self_ms": (layers["cli"]["self_ms"], "ms"),
        "cli.output_bytes": (out_bytes, "bytes"),
    }
    counters = {
        "adjunction": {"opp_element_calls": tracer.count("adjunction.opp_element")},
        "replication": {"build_pair_cpo_calls": tracer.count_from("replication", "adjunction.build_pair_cpo")},
        "strings": {"classify_calls": tracer.count("strings.classify")},
        "catalog": {},
        "funcspace": {"eval_segment_calls": tracer.count("funcspace.eval_segment")},
        "words": {},
        "stages": {"stage_calls": tracer.count("stages.stage"), "p_probes": tracer.p_probes},
    }
    for layer, extra in counters.items():
        m[f"{layer}.calls"] = (layers[layer]["calls"], "count")
        m[f"{layer}.self_ms"] = (layers[layer]["self_ms"], "ms")
        m.update({f"{layer}.{name}": (value, "count") for name, value in extra.items()})
    probes = tracer.paths_probes
    m["stages.probe_yield"] = (tracer.paths_extensions() / probes if probes else 0.0, "ratio")
    m.update(scaling_series(SERIES_SIZES[args.smoke], tally.checker, tally))
    m["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    return m


# -- run record and entry point -----------------------------------------------


def source_ids() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scottlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    ids = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        if proc.returncode == 0:
            ids["git_sha"] = proc.stdout.strip()
    return ids


def run_one(args) -> int:
    if not (SRC / "scottlab" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: {SRC / 'scottlab'} or {GOLDEN} is missing; run from a scottlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "scottlab"), quiet=1)
    import scottlab.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported scottlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
        **source_ids(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    tally = Tally(Checker(GOLDEN.read_text(encoding="utf-8")))
    env = child_env()
    measure = traced if args.trace else end_to_end
    metrics = measure(args.workload, args, env, cli, tally, record)
    record["loadavg_after"] = os.getloadavg()
    record["benchmark_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["failures"] = tally.failures
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<28} {value:>14.4f} {unit}")
    if not args.trace:
        print(f"{args.workload:<13} {'error_rate':<28} {record['error_rate']:>14.4f} ratio "
              f"({len(tally.failures)}/{tally.attempted}, {record['latency_samples']} latency samples)")
        print(f"{args.workload:<13} unscaled: " + ", ".join(
            f"{k} {v:.4f}" for k, v in (*record["wall"].items(), ("setup_s", record["setup_wall_s"]),
                                         ("reference_ms", record["reference_ms"]))))
    print("run " + json.dumps({k: v for k, v in record.items()
                               if k not in ("metrics", "failures", "latencies_ms", "scaled_ms", "wall")}))
    print(json.dumps({
        "correct": not tally.failures, "attempted": tally.attempted, "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one row per workload and metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one block (for the tests)")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
