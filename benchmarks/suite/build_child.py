"""One build repeat, in a fresh process: TSV file -> servable store.

``python build_child.py TSV STORE AGGREGATE TRACE QUICK`` runs the public
pipeline ``read_relation`` -> ``SPCube(paper_cluster(n)).compute`` ->
``CubeStore.write`` once and prints one JSON line of host-clock timings
and exact counts read from ``run.metrics``.  A fresh process per repeat
gives each timing the same allocator and cache state and makes
``ru_maxrss`` the peak of exactly one build.  Each of the three layer
calls sits between two reference-kernel samples and is reported at
reference host speed (see calibrate.py); ``pipeline_s`` is their sum.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.aggregates import get_aggregate  # noqa: E402
from repro.analysis import paper_cluster  # noqa: E402
from repro.core import SPCube  # noqa: E402
from repro.io import read_relation  # noqa: E402
from repro.serving import CubeStore  # noqa: E402

from calibrate import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402


def shuffle_counts(run, rows: int, cluster) -> dict:
    """Exact shuffle-layer counts of the cube round (the last job)."""
    cube_round = run.metrics.jobs[-1]
    loads = [task.records_in for task in cube_round.reduce_tasks]
    # Prop 4.2(2): reducers 1..k (reducer 0 takes the skewed groups'
    # partial aggregates) each receive at most n/k + m records.
    band = rows / cluster.num_machines + cluster.memory_records
    return {
        "shuffle_records": cube_round.map_output_records,
        "shuffle_bytes": cube_round.map_output_bytes,
        "max_reducer_share": max(loads) / max(1, sum(loads)),
        "load_band_ratio": max(loads[1:]) / band,
    }


def main(argv) -> int:
    tsv, store_path, aggregate_name, trace, quick = argv
    tracer = Tracer(trace == "1")
    clock = HostClock(tracer, quick == "1")
    aggregate = get_aggregate(aggregate_name)

    def read():
        with tracer.span("io.read_relation") as counts:
            relation = read_relation(tsv)
            counts["rows"] = len(relation)
        return relation

    def compute():
        with tracer.span("spcube.compute") as counts:
            run = SPCube(cluster, aggregate).compute(relation)
            counts["groups"] = run.cube.num_groups
        return run

    def write():
        with tracer.span("store.write") as counts:
            counts["bytes"] = CubeStore.write(
                run.cube, store_path, aggregate=aggregate_name
            )
        return counts["bytes"]

    with tracer.span("build.pipeline"):
        relation, read_s, _ = clock.timed(read)
        cluster = paper_cluster(len(relation))
        run, build_s, build_slowdown = clock.timed(compute)
        store_bytes, write_s, _ = clock.timed(write)
    if run.metrics.failed:
        print("build child: run reported failure", file=sys.stderr)
        return 1

    rows = len(relation)
    jobs = run.metrics.jobs
    report = {
        "rows": rows,
        "groups": run.cube.num_groups,
        "read_s": read_s,
        "build_s": build_s,
        "write_s": write_s,
        "pipeline_s": read_s + build_s + write_s,
        "host_factors": clock.factors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "store_bytes": store_bytes,
        "intermediate_bytes": run.metrics.intermediate_bytes,
        "sim_total_s": run.metrics.total_seconds,
        "round1_s": sum(
            job.map_phase_wall_seconds + job.reduce_phase_wall_seconds
            for job in jobs[:-1]
        ) / build_slowdown,
        "round2_map_s": jobs[-1].map_phase_wall_seconds / build_slowdown,
        "round2_reduce_s": (
            jobs[-1].reduce_phase_wall_seconds / build_slowdown
        ),
        "sketch_bytes": run.metrics.extras.get("sketch_bytes"),
        "skewed_groups": run.metrics.extras.get("num_skewed_groups"),
        "sample_rows": run.metrics.extras.get("sample_size"),
        "spans": tracer.spans,
    }
    report.update(shuffle_counts(run, rows, cluster))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
