"""Per-layer probes for the traced pass, measured from outside each layer.

Each probe calls one layer's public function on the workload's own data
and returns ``{metric name: value}``.  The end-to-end path never comes
through here.  Probes reach deeper than the end-to-end path does
(``plan_tuple``, ``buc_cube``, ``build_sketch_from_sample``, ``run_job``,
``add_pairs``), so each one degrades to ``None`` values plus a one-line
reason when a later change renames or re-shapes what it calls: a renamed
kernel costs one layer's numbers, not the benchmark.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence

#: Rows the planner and BUC probes walk (the whole relation if smaller).
PROBE_ROWS = 20_000
#: Pairs pushed through the pass-through MapReduce job.
IDENTITY_PAIRS = 200_000


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; the sample just above ``fraction``."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


#: Probe results that are rates (scaled up on a slow host, where times
#: are scaled down) or not host-clock quantities at all.
RATES = {"buc.groups_per_s", "store.decode_mb_per_s"}
UNSCALED = {"store.ratio_vs_memory"}


def guarded(names: Sequence[str], probe: Callable[[], Dict], clock, tracer):
    """Run ``probe`` under a span, scale its times to reference host
    speed; on an API mismatch null its metrics and say why."""
    layer = names[0].split(".")[0]

    def section():
        gc.collect()
        with tracer.span("probe." + layer):
            return probe()

    try:
        values, _, slowdown = clock.timed(section)
    except (ImportError, TypeError, AttributeError, KeyError) as error:
        print(f"probe {layer} unavailable: {type(error).__name__}: {error}",
              file=sys.stderr)
        return {name: None for name in names}
    return {
        name: values[name] if name in UNSCALED
        else values[name] * slowdown if name in RATES
        else values[name] / slowdown
        for name in names
    }


def sketch(relation, run, cluster, seed: int) -> Dict:
    from repro.core.sketch import build_sketch_from_sample

    alpha, beta = run.metrics.extras["alpha"], run.metrics.extras["beta"]
    sample = relation.sample(alpha, random.Random(seed))
    started = time.perf_counter()
    build_sketch_from_sample(
        sample, relation.schema.num_dimensions, cluster.num_machines, beta
    )
    return {"sketch.build_ms": (time.perf_counter() - started) * 1e3}


def planner(relation, run) -> Dict:
    from repro.core.planner import plan_tuple

    rows = relation[:PROBE_ROWS]
    sketch_ = run.sketch
    started = time.perf_counter()
    for row in rows:
        plan_tuple(row, sketch_)
    elapsed = time.perf_counter() - started
    return {"planner.walk_us_per_row": elapsed / len(rows) * 1e6}


def engine(pairs: int) -> Dict:
    from repro.analysis import paper_cluster
    from repro.mapreduce import MapReduceJob, run_job

    cluster = paper_cluster(pairs)
    job = MapReduceJob.from_functions(
        "identity",
        lambda record: (record,),
        lambda key, values: [(key, value) for value in values],
    )
    machines = cluster.num_machines
    chunks = [
        [(i, i) for i in range(start, pairs, machines)]
        for start in range(machines)
    ]
    started = time.perf_counter()
    result = run_job(job, chunks, cluster, cluster.memory_records)
    elapsed = time.perf_counter() - started
    if len(result.output) != pairs:
        raise TypeError(f"identity job returned {len(result.output)} pairs")
    return {"engine.identity_us_per_pair": elapsed / pairs * 1e6}


def executor(relation, aggregate, run) -> Dict:
    from repro.analysis import paper_cluster
    from repro.core import SPCube

    cluster = paper_cluster(len(relation), parallelism=2)
    started = time.perf_counter()
    parallel = SPCube(cluster, aggregate).compute(relation)
    elapsed = time.perf_counter() - started
    if parallel.cube != run.cube:
        raise AssertionError("parallel cube differs from the serial cube")
    return {"executor.par2_s": elapsed}


def buc(relation, aggregate) -> Dict:
    from repro.cubing import buc_cube
    from repro.relation import Relation

    head = Relation(relation.schema, relation[:PROBE_ROWS], validate=False)
    started = time.perf_counter()
    cube = buc_cube(head, aggregate)
    elapsed = time.perf_counter() - started
    return {
        "buc.us_per_row": elapsed / len(head) * 1e6,
        "buc.groups_per_s": cube.num_groups / elapsed,
    }


def result_merge(cube) -> Dict:
    from repro.cubing import CubeResult

    pairs = list(cube.items())
    started = time.perf_counter()
    CubeResult(cube.schema).add_pairs(pairs)
    elapsed = time.perf_counter() - started
    return {"result.merge_us_per_group": elapsed / len(pairs) * 1e6}


def store_read(store_path: str, cube) -> Dict:
    from repro.serving import CubeStore, estimate_cube_bytes

    started = time.perf_counter()
    store = CubeStore.open(store_path)
    open_ms = (time.perf_counter() - started) * 1e3
    loads = []
    with store:
        for mask in store.masks:
            started = time.perf_counter()
            store.cuboid(mask)
            loads.append(time.perf_counter() - started)
        total = sum(loads)
        return {
            "store.open_ms": open_ms,
            "store.decode_us_per_group": total / store.total_groups * 1e6,
            "store.decode_mb_per_s": store.store_bytes / 1e6 / total,
            "store.segment_load_ms_p50": statistics.median(loads) * 1e3,
            "store.segment_load_ms_max": max(loads) * 1e3,
            "store.ratio_vs_memory": (
                store.store_bytes / estimate_cube_bytes(cube)
            ),
        }


def view(store_path: str, pool: List[dict], seed: int) -> Dict:
    """In-process ``execute_query``: first and second touch of the pool
    in a seeded random order (as the clients draw it), then serialising
    each answer the way the server replies."""
    from repro.serving import StoredCubeView, execute_query

    pool = random.Random(seed).sample(pool, len(pool))
    cold, warm, serialise, answers = [], [], [], []
    with StoredCubeView.open(store_path) as stored:
        for spec in pool:
            started = time.perf_counter()
            answers.append(execute_query(stored, spec))
            cold.append(time.perf_counter() - started)
        for spec in pool:
            started = time.perf_counter()
            execute_query(stored, spec)
            warm.append(time.perf_counter() - started)
    for answer in answers:
        started = time.perf_counter()
        json.dumps({"ok": True, "result": answer}, sort_keys=True)
        serialise.append(time.perf_counter() - started)
    return {
        "view.cold_ms_p50": statistics.median(cold) * 1e3,
        "view.cold_ms_p99": percentile(cold, 0.99) * 1e3,
        "view.warm_ms_p50": statistics.median(warm) * 1e3,
        "view.warm_ms_p99": percentile(warm, 0.99) * 1e3,
        "server.serialise_ms_p50": statistics.median(serialise) * 1e3,
    }
