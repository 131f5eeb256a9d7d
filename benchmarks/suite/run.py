"""One benchmark for the whole path: build -> publish -> serve.

    python benchmarks/suite/run.py [--workload NAME] [--seed 600]
        [--seconds N] [--trace 0|1] [--out FILE] [--quick]

Every workload runs the same path on its own inputs (see workloads.py):
fresh child processes turn the generated TSV into a store
(``read_relation`` -> ``SPCube.compute`` -> ``CubeStore.write``), the
store is read back and compared with the sequential oracle, then
``python -m repro serve-cube`` serves it in its own process to two
closed-loop clients whose every answer is compared byte-for-byte with
the oracle's.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
records spans around each layer call, runs the per-layer probes, writes
``out/trace-<workload>.json`` and reports the per-layer metrics.  Metric
names, units and bounds are declared in ``BENCHMARK.json``; README.md
says what each is for.  Host-clock times are reported at reference host
speed (see calibrate.py).

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when anything failed or answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(SUITE))

from repro.aggregates import get_aggregate  # noqa: E402
from repro.cubing import sequential_cube  # noqa: E402
from repro.io import read_relation  # noqa: E402
from repro.query import CubeView  # noqa: E402
from repro.serving import CubeStore, execute_query  # noqa: E402

import probes  # noqa: E402
import serve  # noqa: E402
from calibrate import HostClock  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

#: Closed-loop callers; one per core of the 2-core box, and far below
#: the server's workers + queue (20), so any 503/504 is a failure.
CLIENTS = 2
#: Times the whole set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The serving loop runs in rounds with a host-speed sample between them.
SERVE_ROUNDS = 10
#: Untraced/traced build pairs of a traced run.
TRACED_PAIRS = 3
#: Cold-pool requests sent before timing, so timing starts with the
#: segment cache full and the result cache most of the way there.
COLD_PREFILL = 100
CHILD_TIMEOUT_S = 120


def expected_body(view: CubeView, spec: dict) -> bytes:
    """The exact bytes a correct server answers ``spec`` with."""
    return json.dumps(
        {"ok": True, "result": execute_query(view, spec)}, sort_keys=True
    ).encode()


def build_child(
    tsv: str, store: str, aggregate: str, traced: bool, quick: bool,
    tracer: Tracer,
) -> Optional[dict]:
    """Run one build repeat in a fresh process; ``None`` if it failed."""
    with tracer.span("build.child") as counts:
        done = subprocess.run(
            [sys.executable, str(SUITE / "build_child.py"), tsv, store,
             aggregate, str(int(traced)), str(int(quick))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        counts["exit"] = done.returncode
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            return None
        report = json.loads(done.stdout.splitlines()[-1])
        tracer.adopt(report.pop("spans"), tracer.current())
        report["traced"] = traced
        return report


def build_phase(
    workload: Workload, tsv: str, store: str, budget_s: float,
    min_builds: int, traced: bool, quick: bool, tracer: Tracer,
) -> Dict:
    """Warm-up repeat (discarded), then timed repeats.

    Untraced runs repeat until ``min_builds`` are done and the budget is
    spent; traced runs alternate untraced and traced children, so the
    tracing overhead is measured inside one run.
    """
    attempts = failures = 0
    reports: List[dict] = []
    if build_child(
        tsv, store, workload.aggregate, False, quick, tracer
    ) is None:
        raise RuntimeError("warm-up build failed")
    started = time.perf_counter()
    while True:
        if traced:
            if attempts >= 2 * min(TRACED_PAIRS, min_builds):
                break
        elif len(reports) >= min_builds:
            spent = time.perf_counter() - started
            if spent + spent / attempts > budget_s:
                break
        report = build_child(
            tsv, store, workload.aggregate, traced and attempts % 2 == 1,
            quick, tracer,
        )
        attempts += 1
        if report is None:
            failures += 1
            if failures > min_builds:
                raise RuntimeError("build children keep failing")
        else:
            reports.append(report)
    return {"reports": reports, "attempts": attempts, "failures": failures}


def warm(port: int, workload: Workload, bodies, expected, seed: int) -> int:
    """Fill the server's caches before timing; returns wrong answers.

    Hot pool: one pass over every spec, so each later request is a
    result-cache hit.  Cold pool: seeded requests that fill the LRUs.
    """
    if workload.pool == "hot":
        order = range(len(bodies))
    else:
        rng = random.Random(seed - 1)
        order = [rng.randrange(len(bodies)) for _ in range(COLD_PREFILL)]
    client = serve.Client(port)
    failures = 0
    try:
        for index in order:
            status, payload = client.query(bodies[index])
            if status != 200 or payload != expected[index]:
                failures += 1
    finally:
        client.close()
    return failures


def serve_rounds(
    clock: HostClock, port: int, bodies, expected, clients: int, seed: int,
    min_requests: int, seconds: float, tracer: Tracer,
) -> Dict:
    """The closed loop in ``SERVE_ROUNDS`` rounds, each scaled to
    reference host speed by the kernel samples around it."""
    latencies, sizes = [], []
    failures, wall = 0, 0.0
    for round_index in range(SERVE_ROUNDS):
        result, _, slowdown = clock.timed(
            lambda: serve.closed_loop(
                port, bodies, expected, clients,
                seed * 1000 + round_index * 10,
                -(-min_requests // SERVE_ROUNDS), seconds / SERVE_ROUNDS,
                tracer,
            )
        )
        # The round's own wall excludes thread start-up and joins.
        wall += result["wall"] / slowdown
        latencies.extend(x / slowdown for x in result["latencies"])
        sizes.extend(result["sizes"])
        failures += result["failures"]
    return {
        "latencies": latencies, "sizes": sizes, "failures": failures,
        "wall": wall,
    }


def median_of(reports: List[dict], key: str) -> Dict:
    values = [report[key] for report in reports]
    summary = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        quartiles = statistics.quantiles(values, n=4)
        summary["q1"], summary["q3"] = quartiles[0], quartiles[2]
    return summary


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool,
    quick: bool, tracer: Tracer,
) -> Dict:
    """One full run; returns ``{"attempted", "failed", "metrics", ...}``."""
    rows = max(200, workload.rows // 20) if quick else workload.rows
    min_builds = 1 if quick else workload.min_builds
    min_requests = 60 if quick else workload.min_requests
    setup_repeats = 1 if quick or traced else SETUP_REPEATS
    aggregate = get_aggregate(workload.aggregate)
    clock = HostClock(quick=quick)

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tsv = os.path.join(work, "input.tsv")
    store = os.path.join(work, "cube.store")
    server: Optional[serve.Server] = None

    def serving_setup():
        """Oracle, expected answers, server spawn-to-ready, warming."""
        nonlocal server
        with tracer.span("setup.oracle"):
            relation = read_relation(tsv)
            oracle = sequential_cube(relation, aggregate)
        with tracer.span("setup.expected"):
            oracle_view = CubeView(oracle)
            expected = [expected_body(oracle_view, s) for s in inputs.pool]
        if server is not None:
            server.close()
        with tracer.span("setup.server"):
            server = serve.Server(
                store, str(SRC), os.path.join(work, "server.log")
            )
        with tracer.span("setup.warm"):
            wrong = warm(server.port, workload, bodies, expected, seed)
        return relation, oracle, expected, wrong

    def input_setup():
        with tracer.span("setup.inputs"):
            return make_inputs(workload, seed, tsv, rows)

    try:
        with tracer.span("run", workload=workload.name, seed=seed):
            input_times, serving_times = [], []
            for _ in range(setup_repeats):
                inputs, scaled, _ = clock.timed(input_setup)
                input_times.append(scaled)
            bodies = [json.dumps(spec).encode() for spec in inputs.pool]

            with tracer.span("build.phase"):
                builds = build_phase(
                    workload, tsv, store, seconds * workload.build_share,
                    min_builds, traced, quick, tracer,
                )

            for _ in range(setup_repeats):
                (relation, oracle, expected, warm_failures), scaled, slow = (
                    clock.timed(serving_setup)
                )
                serving_times.append(scaled)

            with tracer.span("verify.store"):
                with CubeStore.open(store) as opened:
                    store_ok = opened.to_cube() == oracle

            counters_before = server.stats()["counters"]
            with tracer.span("serve.loop", clients=CLIENTS):
                loop = serve_rounds(
                    clock, server.port, bodies, expected, CLIENTS, seed,
                    min_requests, seconds * (1 - workload.build_share),
                    tracer,
                )
            counters_after = server.stats()["counters"]
            server_rss_mb = server.peak_rss_mb()

            if traced:
                layer_metrics = {
                    **build_layer_metrics(builds["reports"], tracer),
                    **probe_metrics(
                        clock, tracer, relation, aggregate, store,
                        inputs.pool, seed, quick,
                    ),
                    **served_metrics(
                        clock, tracer, server, bodies, expected, loop,
                        {name.split(".", 1)[1]:
                         counters_after[name] - counters_before[name]
                         for name in counters_after},
                        seed, min_requests, seconds,
                    ),
                    "server.start_to_ready_ms": (
                        server.start_to_ready_s / slow * 1e3
                    ),
                }
                warm_ms = layer_metrics["view.warm_ms_p50"]
                layer_metrics["server.front_end_ms_p50"] = (
                    None if warm_ms is None
                    else layer_metrics["server.p50_1client_ms"] - warm_ms
                    - layer_metrics["server.serialise_ms_p50"]
                )
                layer_metrics["host.slowdown"] = statistics.median(
                    clock.factors + [
                        f for r in builds["reports"] for f in r["host_factors"]
                    ]
                )
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work, ignore_errors=True)

    requests = len(loop["latencies"])
    record = {
        "attempted": builds["attempts"] + requests + 1,
        "failed": (
            builds["failures"] + loop["failures"] + warm_failures
            + (0 if store_ok else 1)
        ),
        "digests": {"tsv": inputs.tsv_digest, "pool": inputs.pool_digest},
        "sizes": {
            "rows": rows, "timed_builds": len(builds["reports"]),
            "requests": requests, "pool": len(inputs.pool),
        },
    }
    if traced:
        record["metrics"] = {
            name: {"value": value, "n": 1}
            for name, value in layer_metrics.items()
        }
        return record

    reports = builds["reports"]
    last = reports[-1]
    record["metrics"] = {
        "setup_s": {
            "value": statistics.median(input_times)
            + statistics.median(serving_times),
            "n": setup_repeats,
        },
        "pipeline_wall_s": median_of(reports, "pipeline_s"),
        "build_wall_s": median_of(reports, "build_s"),
        "peak_rss_mb": median_of(reports, "rss_mb"),
        "store_bytes_per_group": {
            "value": last["store_bytes"] / last["groups"], "n": 1,
        },
        "shuffle_bytes_per_row": {
            "value": last["intermediate_bytes"] / last["rows"], "n": 1,
        },
        "sim_total_s": {"value": last["sim_total_s"], "n": 1},
        "query_p50_ms": {
            "value": statistics.median(loop["latencies"]) * 1e3,
            "n": requests,
        },
        "throughput_qps": {
            "value": (requests - loop["failures"]) / loop["wall"],
            "n": requests,
        },
        "server_rss_mb": {"value": server_rss_mb, "n": 1},
    }
    return record


def build_layer_metrics(reports: List[dict], tracer: Tracer) -> Dict:
    """Build layers from the traced children's clocks and ``run.metrics``."""
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    last = traced[-1]
    rows, groups = last["rows"], last["groups"]

    def median(key: str, source=traced) -> float:
        return statistics.median(report[key] for report in source)

    build_s = median("build_s")
    driver_s = build_s - (
        median("round1_s") + median("round2_map_s")
        + median("round2_reduce_s")
    )
    # Share of the traced pipeline spans (less the calibration samples
    # inside them) that lies inside a layer call.
    layer_spans = [
        s for s in tracer.spans
        if s["name"] in ("build.pipeline", "io.read_relation",
                         "spcube.compute", "store.write", "host.calibrate")
    ]
    own = self_times(layer_spans)
    layers_s = (
        own["io.read_relation"] + own["spcube.compute"] + own["store.write"]
    )
    return {
        "io.read_relation_s": median("read_s"),
        "io.read_us_per_row": median("read_s") / rows * 1e6,
        "spcube.round1_s": median("round1_s"),
        "spcube.round2_map_s": median("round2_map_s"),
        "spcube.round2_reduce_s": median("round2_reduce_s"),
        "spcube.driver_s": driver_s,
        "spcube.unattributed_share": driver_s / build_s,
        "store.write_s": median("write_s"),
        "store.write_us_per_group": median("write_s") / groups * 1e6,
        "store.bytes": last["store_bytes"],
        "cube.groups": groups,
        "cube.groups_per_row": groups / rows,
        "sketch.bytes": last["sketch_bytes"],
        "sketch.skewed_groups": last["skewed_groups"],
        "sketch.sample_rows": last["sample_rows"],
        "shuffle.records_per_row": last["shuffle_records"] / rows,
        "shuffle.bytes": last["shuffle_bytes"],
        "shuffle.max_reducer_share": last["max_reducer_share"],
        "shuffle.load_band_ratio": last["load_band_ratio"],
        "trace.accounted_share": (
            layers_s / (layers_s + own["build.pipeline"])
        ),
        "trace.overhead_share": (
            median("pipeline_s") / median("pipeline_s", plain) - 1
        ),
    }


def probe_metrics(
    clock: HostClock, tracer: Tracer, relation, aggregate, store: str,
    pool: List[dict], seed: int, quick: bool,
) -> Dict:
    """In-process probes on the workload's own relation, cube and store."""
    from repro.analysis import paper_cluster
    from repro.core import SPCube

    cluster = paper_cluster(len(relation))
    with tracer.span("probe.compute"):
        run, serial_wall, _ = clock.timed(
            lambda: SPCube(cluster, aggregate).compute(relation)
        )
    metrics: Dict[str, Optional[float]] = {}
    for names, probe in (
        (["sketch.build_ms"],
         lambda: probes.sketch(relation, run, cluster, seed)),
        (["planner.walk_us_per_row"],
         lambda: probes.planner(relation, run)),
        (["engine.identity_us_per_pair"],
         lambda: probes.engine(
             probes.IDENTITY_PAIRS // (100 if quick else 1))),
        (["executor.par2_s"],
         lambda: probes.executor(relation, aggregate, run)),
        (["buc.us_per_row", "buc.groups_per_s"],
         lambda: probes.buc(relation, aggregate)),
        (["result.merge_us_per_group"],
         lambda: probes.result_merge(run.cube)),
        (["store.open_ms", "store.decode_us_per_group",
          "store.decode_mb_per_s", "store.segment_load_ms_p50",
          "store.segment_load_ms_max", "store.ratio_vs_memory"],
         lambda: probes.store_read(store, run.cube)),
        (["view.cold_ms_p50", "view.cold_ms_p99", "view.warm_ms_p50",
          "view.warm_ms_p99", "server.serialise_ms_p50"],
         lambda: probes.view(store, pool, seed)),
    ):
        metrics.update(probes.guarded(names, probe, clock, tracer))
    par2_s = metrics.pop("executor.par2_s")
    metrics["executor.par2_ratio"] = (
        None if par2_s is None else par2_s / serial_wall
    )
    return metrics


def served_metrics(
    clock: HostClock, tracer: Tracer, server: serve.Server, bodies,
    expected, loop: Dict, counters: Dict[str, int], seed: int,
    min_requests: int, seconds: float,
) -> Dict:
    """The measured server from outside: its /stats over the timed loop,
    then a /healthz floor and a single-caller loop on the same server."""
    queries = max(1, counters["requests"])
    lookups = counters["cache_hit"] + counters["cache_miss"]
    touches = counters["segment_hit"] + counters["segment_load"]
    with tracer.span("probe.healthz"):
        floor, _, slowdown = clock.timed(
            lambda: serve.healthz_floor(
                server.port, max(50, min_requests // 2)
            )
        )
    with tracer.span("probe.one_client"):
        single = serve_rounds(
            clock, server.port, bodies, expected, 1, seed + 1,
            min_requests // 4, seconds / 8, tracer,
        )
    one_client_ms = statistics.median(single["latencies"]) * 1e3
    return {
        "view.result_hit_rate": counters["cache_hit"] / max(1, lookups),
        "view.segment_hit_rate": counters["segment_hit"] / max(1, touches),
        "view.segment_loads_per_query": counters["segment_load"] / queries,
        "view.bytes_read_per_query": counters["bytes_read"] / queries,
        "view.reaggregations": counters["reaggregations"],
        "server.shed": counters["shed"],
        "server.deadline_exceeded": counters["deadline_exceeded"],
        "server.query_errors": counters["query_errors"],
        "server.query_p99_ms": (
            probes.percentile(loop["latencies"], 0.99) * 1e3
        ),
        "server.answer_bytes_p50": statistics.median(loop["sizes"]),
        "server.answer_bytes_p99": probes.percentile(loop["sizes"], 0.99),
        "server.http_floor_ms_p50": (
            statistics.median(floor) / slowdown * 1e3
        ),
        "server.p50_1client_ms": one_client_ms,
        "server.contention_ratio": (
            statistics.median(loop["latencies"]) * 1e3 / one_client_ms
        ),
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=600)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="append one JSON line per run, for compare.py")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    exit_code = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        tracer = Tracer(bool(args.trace))
        record = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
            args.quick, tracer,
        )
        if args.trace:
            (OUT / f"trace-{name}.json").write_text(json.dumps({
                "workload": name, "seed": args.seed,
                "self_time_s": self_times(tracer.spans),
                "spans": tracer.spans,
            }))
        for metric, summary in record["metrics"].items():
            summary["unit"] = units[metric]
            print(f"{name} {metric} {summary['value']} {summary['unit']}")
        record.update({
            "workload": name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "quick": args.quick,
            "correct": record["failed"] == 0,
            "nproc": os.cpu_count(), "python": platform.python_version(),
        })
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        if record["failed"]:
            exit_code = 1
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": summary["value"], "unit": summary["unit"]}
                for metric, summary in record["metrics"].items()
            },
        }))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
