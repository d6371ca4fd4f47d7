"""Host speed, measured next to every request so that timings can be scaled by it.

The benchmark runs on shared hosts whose speed drifts by 20% or more
over tens of seconds (a fixed pure-Python loop, timed by wall clock
and by CPU clock alike, does so).  No statistic inside one run removes
drift that lasts longer than the run.  So every request is bracketed
by reference samples that scottlab does not run:

* in-process requests: REFERENCE_LOOP, fixed pure-Python work (dicts,
  sorting, string formatting, tuples) timed in the benchmark process
  with the garbage collector off, so that the program's heap does not
  change its cost;
* cold requests: a bare interpreter start, `python -c pass`.

A request's scaled time is its wall time times NOMINAL / reference,
where the reference is the mean of the samples just before and just
after it.  It reads as the wall time on a host where the reference
takes its NOMINAL time (about what a 2-vCPU Xeon VM gives when it is
not slowed).  A change to scottlab moves the request times and not the
references, so it moves the scaled times in full.
"""

from __future__ import annotations

import gc
import time

NOMINAL_LOOP_S = 0.006      # REFERENCE_LOOP
NOMINAL_START_S = 0.040     # python -c pass


def reference_loop() -> int:
    table: dict[int, int] = {}
    for i in range(20000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + 1
    items = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    text = ",".join(f"{a}:{b}" for a, b in items)
    tuples = {tuple(range(j % 7)) for j in range(3000)}
    return len(text) + len(tuples)


def loop_s() -> float:
    """Seconds for one REFERENCE_LOOP, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scaled(latencies: list[float], refs: list[float], nominal: float) -> list[float]:
    """Each latency times nominal over the mean of the reference samples around it.

    refs holds one sample before the first request and one after each.
    """
    return [dt * nominal / ((refs[i] + refs[i + 1]) / 2) for i, dt in enumerate(latencies)]
