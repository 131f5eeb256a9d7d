"""Trace overhead twin: the same workload untraced and traced at a level.

Observability has one performance contract, in two halves:

* **attached cost** — :func:`measure_trace_overhead` runs one relation on
  two identically-configured clusters, tracer off and on at ``level``
  with the watchdog, telemetry and lineage derivations riding as sinks
  (the most expensive configuration of that level), and reports the
  median wall-clock ratio of back-to-back pairs.  ``debug`` classifies every shuffled key to its
  cuboid, so its ratio is well above 1.0 by design.
* **detached cost** — with no tracer attached every instrumentation point
  is ``if tracer.enabled:`` on the one null object;
  :func:`null_guard_floor` times exactly that guard, so a refactor that
  makes the disabled path allocate shows up as a number, not a hunch.

``tests/integration/test_smoke.py`` (``pytest -m smoke``) runs both in
a child process and asserts the budgets: ``task`` < 1.05x, ``debug``
< 2.0x, guard < 1 µs.
"""

from __future__ import annotations

import time
from operator import truediv
from statistics import median
from typing import Dict

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.observability import (
    NULL_TRACER,
    LineageIndex,
    MemorySink,
    Telemetry,
    Tracer,
    Watchdog,
)


def _timed_compute(cluster, relation) -> float:
    engine = SPCube(cluster)
    start = time.perf_counter()
    engine.compute(relation)
    return time.perf_counter() - start


def measure_trace_overhead(
    level: str = "task", rows: int = 20_000, skew: float = 0.4,
    seed: int = 600, repeats: int = 1,
) -> Dict:
    """Wall-clock twin: tracer off vs on at ``level``, ``repeats`` pairs.

    Each pair runs the two sides back to back, and the sides take turns
    going first, so neither the host's speed drifting between pairs nor
    the place a run takes in its pair is booked to one side.  Returns the
    median time per side, the median of the pairs' on/off ratios, and
    what the traced run recorded (a ratio measured while recording
    nothing is recognizable as meaningless).
    """
    relation = gen_binomial(rows, skew, seed=seed)
    off_times, on_times = [], []
    for repeat in range(repeats):
        for traced in (repeat % 2 == 1, repeat % 2 == 0):
            cluster = paper_cluster(rows)
            if traced:
                sink, telemetry, lineage = (
                    MemorySink(), Telemetry(), LineageIndex()
                )
                cluster.tracer = Tracer(
                    [sink, Watchdog(), telemetry, lineage], level=level
                )
            times = on_times if traced else off_times
            times.append(_timed_compute(cluster, relation))
    return {
        "rows": rows,
        "level": level,
        "trace_off_wall_seconds": round(median(off_times), 4),
        "trace_on_wall_seconds": round(median(on_times), 4),
        "overhead_ratio": round(median(map(truediv, on_times, off_times)), 4),
        "records": len(sink),
        "metric_families": len(telemetry.registry.names()),
        "flows": sum(len(job["flows"]) for job in lineage.jobs.values()),
    }


def null_guard_floor(iterations: int = 200_000) -> Dict:
    """Nanoseconds per disabled-path check, vs an empty loop baseline."""
    tracer = NULL_TRACER
    counted = 0

    start = time.perf_counter()
    for _ in range(iterations):
        if tracer.enabled:
            counted += 1
    guarded = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iterations):
        pass
    empty = time.perf_counter() - start

    per_check_ns = max(0.0, (guarded - empty) / iterations * 1e9)
    return {
        "iterations": iterations,
        "guard_ns_per_check": round(per_check_ns, 2),
        "records_taken": counted,  # always 0: the null never enables
    }


if __name__ == "__main__":
    import json

    report = {
        level: measure_trace_overhead(level)
        for level in ("job", "task", "debug")
    }
    report["null_floor"] = null_guard_floor()
    print(json.dumps(report, indent=2))
