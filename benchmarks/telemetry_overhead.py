"""Telemetry overhead twin: the same workload with and without a collector.

The telemetry layer's performance contract has two halves:

* **attached cost** — a run with a live :class:`Telemetry` collector may
  not be materially slower than the identical run without one.  The twin
  here runs the same relation on two identically-configured clusters,
  telemetry off then on, and reports the wall-clock ratio.  CI's
  ``telemetry-smoke`` job asserts the ratio stays under its budget.
* **detached cost** — with no collector attached, the instrumentation
  points must cost one attribute check and nothing else.  The micro
  floor times the engine-style guard (``telemetry.enabled``) against the
  null object and reports nanoseconds per check, so a refactor that
  accidentally makes the disabled path allocate shows up as a number,
  not a hunch.

The lineage layer (PR 9's flight recorder + watchdog) carries the same
contract and gets the same twin: :func:`measure_lineage_overhead` runs
the workload bare and then with a :class:`LineageRecorder` and
:class:`Watchdog` attached — the most expensive observability
configuration, since every shuffled key is classified to its cuboid.

CI's ``telemetry-smoke`` job imports ``measure_overhead`` /
``measure_lineage_overhead`` / ``null_guard_floor`` and asserts its
budgets inline.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.observability import (
    NULL_TELEMETRY,
    LineageRecorder,
    Telemetry,
    Watchdog,
)


def _timed_compute(cluster, relation) -> float:
    engine = SPCube(cluster)
    start = time.perf_counter()
    engine.compute(relation)
    return time.perf_counter() - start


def measure_overhead(
    rows: int = 20_000, skew: float = 0.4, seed: int = 600,
    repeats: int = 1,
) -> Dict:
    """Wall-clock twin: telemetry off vs on, best-of-``repeats`` each.

    Returns the two times, the on/off ratio, and the sample count the
    enabled collector gathered (so a ratio measured while collecting
    nothing is recognizable as meaningless).
    """
    relation = gen_binomial(rows, skew, seed=seed)
    off_times, on_times, samples = [], [], 0
    for _ in range(repeats):
        off_times.append(_timed_compute(paper_cluster(rows), relation))
        telemetry = Telemetry(run_id="overhead-twin")
        on_cluster = paper_cluster(rows)
        on_cluster.telemetry = telemetry
        on_times.append(_timed_compute(on_cluster, relation))
        samples = len(telemetry.samples)
    off_wall, on_wall = min(off_times), min(on_times)
    return {
        "rows": rows,
        "telemetry_off_wall_seconds": round(off_wall, 4),
        "telemetry_on_wall_seconds": round(on_wall, 4),
        "overhead_ratio": round(on_wall / off_wall if off_wall else 0.0, 4),
        "samples_collected": samples,
    }


def measure_lineage_overhead(
    rows: int = 20_000, skew: float = 0.4, seed: int = 600,
    repeats: int = 1,
) -> Dict:
    """Wall-clock twin: flight recorder + watchdog off vs on.

    Returns the two times, the on/off ratio, and the flow/alert counts
    the enabled recorder gathered (a ratio measured while recording
    nothing is recognizable as meaningless).
    """
    relation = gen_binomial(rows, skew, seed=seed)
    off_times, on_times = [], []
    flows = alerts = 0
    for _ in range(repeats):
        off_times.append(_timed_compute(paper_cluster(rows), relation))
        on_cluster = paper_cluster(rows)
        on_cluster.lineage = LineageRecorder(run_id="overhead-twin")
        on_cluster.watchdog = Watchdog()
        on_times.append(_timed_compute(on_cluster, relation))
        flows = sum(len(job["flows"]) for job in on_cluster.lineage.jobs)
        alerts = len(on_cluster.watchdog.alerts)
    off_wall, on_wall = min(off_times), min(on_times)
    return {
        "rows": rows,
        "lineage_off_wall_seconds": round(off_wall, 4),
        "lineage_on_wall_seconds": round(on_wall, 4),
        "overhead_ratio": round(on_wall / off_wall if off_wall else 0.0, 4),
        "flows_recorded": flows,
        "alerts_emitted": alerts,
    }


def null_guard_floor(iterations: int = 200_000) -> Dict:
    """Nanoseconds per disabled-path check, vs an empty loop baseline.

    The engine's instrumentation points reduce to ``if telemetry.enabled:``
    when no collector is attached; this times exactly that guard on the
    shared null object and subtracts the loop's own cost.
    """
    telemetry = NULL_TELEMETRY
    counted = 0

    start = time.perf_counter()
    for _ in range(iterations):
        if telemetry.enabled:
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
        "samples_taken": counted,  # always 0: the null never enables
    }


if __name__ == "__main__":
    import json

    report = {
        "twin": measure_overhead(),
        "lineage_twin": measure_lineage_overhead(),
        "null_floor": null_guard_floor(),
    }
    print(json.dumps(report, indent=2))
