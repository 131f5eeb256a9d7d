"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``       write one of the paper's workloads as a delimited file
``cube``           compute a cube from a text relation with a chosen engine
``compare``        run several engines on a workload, print the comparison
``sketch``         build and describe the SP-Sketch of a text relation
``analyze-trace``  summarize a trace file written with ``--trace``
``doctor``         audit sketch accuracy & load balance vs ground truth
``metrics-export`` render a trace's derived metrics as Prometheus text
``report``         stitch run artifacts into one markdown file
``explain-reducer`` walk a debug-level trace from a reducer back to
                   cuboids, map tasks and input splits
``explain-group``  walk a debug-level trace from a cuboid forward to the
                   reducers and map tasks that carried it
``serve-cube``     serve a cube store over HTTP with bounded admission,
                   per-query deadlines and load shedding
``query``          answer one OLAP query from a cube store

Examples::

    python -m repro generate binomial --rows 20000 --skew 0.4 -o data.tsv
    python -m repro cube data.tsv --engine spcube --aggregate sum -o cube.tsv
    python -m repro compare zipf --rows 10000
    python -m repro compare binomial --rows 10000 --fault-seed 7 --verify
    python -m repro sketch data.tsv
    python -m repro cube data.tsv --fault-seed 7 --trace run.trace.jsonl \
        --trace-level debug
    python -m repro analyze-trace run.trace.jsonl --format json
    python -m repro metrics-export run.trace.jsonl
    python -m repro explain-reducer run.trace.jsonl
    python -m repro explain-group run.trace.jsonl --cuboid 0xF
    python -m repro report --trace run.trace.jsonl -o report.md
    python -m repro doctor --rows 4000 --machines 8 --json report.json
    python -m repro cube data.tsv --store cube.store
    python -m repro query cube.store '{"op": "rollup", "dimensions": ["a1"]}'
    python -m repro serve-cube cube.store --port 8080

The ``cube`` and ``compare`` commands take fault-injection knobs
(``--fault-seed``, ``--crash-prob``, ``--straggle-prob``,
``--max-task-attempts``, plus the failure-domain knobs ``--num-nodes``,
``--node-crash-prob`` and ``--checkpoint/--no-checkpoint``) so task
crashes, stragglers, whole-node losses and the framework's recovery are
reproducible from the command line.
Both also take three observability knobs: ``--trace PATH`` writes the
run's one artifact, a structured JSONL trace; ``--trace-level`` picks
its detail (``task`` carries what ``metrics-export`` and the watchdog's
skew/straggler alerts need, ``debug`` adds the per-cuboid flow edges
behind ``explain-reducer`` / ``explain-group`` and misannotation
alerts); ``--progress`` prints live per-job/fault/alert lines to stderr.
A traced run is a watched run — alerts land in the trace as events; see
:mod:`repro.observability`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional

# Import layering (DESIGN.md): this module imports what parsing argv
# needs and nothing else; each command imports what it runs.
from .engines import ENGINE_NAMES, load_engines


def _generate_dataset(name: str, rows: int, skew: float, seed: int):
    from . import datagen

    if name == "binomial":
        return datagen.gen_binomial(rows, skew, seed=seed)
    if name == "zipf":
        return datagen.gen_zipf(rows, seed=seed)
    if name == "wikipedia":
        return datagen.wikipedia_traffic(rows, seed=seed)
    if name == "usagov":
        return datagen.project_to_dimensions(
            datagen.usagov_clicks(rows, seed=seed),
            datagen.USAGOV_CUBE_DIMENSIONS,
        )
    raise SystemExit(f"unknown dataset {name!r}")


def cmd_generate(args) -> int:
    from .io import write_relation

    relation = _generate_dataset(args.dataset, args.rows, args.skew, args.seed)
    count = write_relation(relation, args.output)
    print(f"wrote {count} rows of {relation.name} to {args.output}")
    return 0


def _or_exit(build, *args, **kwargs):
    """``build(*args, **kwargs)``; an unreadable input file or an invalid
    knob exits with one ``repro: error:`` line instead of a traceback."""
    try:
        return build(*args, **kwargs)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}") from None


def _cluster_from_args(args, num_rows: int):
    """Build the run's cluster, honouring the fault-injection knobs."""
    from .analysis import paper_cluster
    from .mapreduce.faults import FaultPlan, RetryPolicy

    try:
        fault_plan = None
        if args.fault_seed is not None:
            fault_plan = FaultPlan(
                seed=args.fault_seed,
                crash_prob=args.crash_prob,
                straggle_prob=args.straggle_prob,
                node_crash_prob=args.node_crash_prob,
            )
        retry_policy = RetryPolicy(max_attempts=args.max_task_attempts)
        cluster = paper_cluster(
            num_rows,
            num_machines=args.machines,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            num_nodes=args.num_nodes,
            checkpoint=args.checkpoint,
        )
        if args.memory_records is not None:
            cluster = cluster.with_memory(args.memory_records)
        return cluster
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None


def _tracer_from_args(args):
    """Build the run's tracer from ``--trace``/``--progress`` (or None).

    A traced run is a watched run: the watchdog rides along as the last
    sink, and what it can check follows from ``--trace-level``.
    """
    if not (args.trace or args.progress):
        return None
    from .observability import JsonlSink, ProgressSink, Tracer, Watchdog

    sinks = []
    if args.trace:
        sinks.append(JsonlSink(args.trace))
    if args.progress:
        sinks.append(ProgressSink())
    sinks.append(Watchdog())
    try:
        return Tracer(sinks, level=args.trace_level)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None


def _finish_trace(tracer, args) -> None:
    """Say where the trace went and what the watchdog saw."""
    if tracer is None:
        return
    if args.trace:
        print(f"trace written to {args.trace}")
    counts = Counter(alert["kind"] for alert in tracer.sinks[-1].alerts)
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(counts.items())
    )
    print(f"watchdog:        {summary or 'no alerts'}")


def _print_survival(metrics) -> None:
    """One line on how the framework kept the run alive under faults."""
    print(
        f"fault recovery:  {metrics.attempts} attempts, "
        f"{metrics.killed_tasks} killed, "
        f"{metrics.speculative_wins} speculative wins, "
        f"{metrics.recovered} tasks recovered"
    )
    if metrics.nodes_lost:
        print(
            f"node failures:   {metrics.nodes_lost} node(s) lost, "
            f"{metrics.resumed_rounds} round(s) resumed from checkpoint"
        )


def _failure_reason(metrics) -> str:
    if metrics.aborted:
        return "aborted — a task exhausted its retry budget"
    return "reducers out of memory"


def cmd_cube(args) -> int:
    from . import io as repro_io
    from .aggregates import get_aggregate

    relation = _or_exit(repro_io.read_relation, args.input)
    cluster = _cluster_from_args(args, len(relation))
    cluster.tracer = _tracer_from_args(args)
    engine_cls = load_engines([args.engine])[args.engine]
    engine = engine_cls(cluster, get_aggregate(args.aggregate))
    try:
        run = engine.compute(relation)
    finally:
        if cluster.tracer is not None:
            cluster.tracer.close()
    _finish_trace(cluster.tracer, args)

    if args.output:
        lines = repro_io.write_cube(run.cube, args.output)
        print(f"wrote {lines} c-groups to {args.output}")
    if args.store:
        from .serving import CubeStore

        size = CubeStore.write(
            run.cube, args.store, aggregate=args.aggregate
        )
        print(
            f"wrote cube store to {args.store} ({size} bytes; "
            f"serve with 'repro serve-cube {args.store}')"
        )
    metrics = run.metrics
    print(f"engine:          {metrics.algorithm}")
    print(f"c-groups:        {run.cube.num_groups}")
    print(f"simulated time:  {metrics.total_seconds:.1f} s")
    print(f"map output:      {metrics.intermediate_bytes / 1e6:.2f} MB")
    if args.fault_seed is not None:
        _print_survival(metrics)
    if metrics.failed:
        print(f"status:          FAILED ({_failure_reason(metrics)})")
    return 0


def cmd_compare(args) -> int:
    from .aggregates import get_aggregate
    from .analysis import run_algorithms

    relation = _generate_dataset(args.dataset, args.rows, args.skew, args.seed)
    cluster = _cluster_from_args(args, len(relation))
    cluster.tracer = _tracer_from_args(args)
    engines = {
        name: engine_cls(cluster, get_aggregate(args.aggregate))
        for name, engine_cls in load_engines(args.engines).items()
    }
    try:
        runs = run_algorithms(relation, engines, verify=args.verify)
    finally:
        if cluster.tracer is not None:
            cluster.tracer.close()
    _finish_trace(cluster.tracer, args)

    with_faults = args.fault_seed is not None
    header = f"{'engine':12s}{'time(s)':>10s}{'traffic(MB)':>13s}{'status':>10s}"
    if with_faults:
        header += f"{'attempts':>10s}{'recovered':>11s}"
    print(f"dataset: {relation.name}\n")
    print(header)
    print("-" * len(header))
    for name, run in runs.items():
        metrics = run.metrics
        # "stuck" mirrors Figure 6a's reporting of runs that never finish.
        if metrics.aborted:
            status = "stuck"
        elif metrics.failed:
            status = "OOM"
        else:
            status = "ok"
        line = (
            f"{name:12s}{metrics.total_seconds:10.1f}"
            f"{metrics.intermediate_bytes / 1e6:13.2f}{status:>10s}"
        )
        if with_faults:
            line += f"{metrics.attempts:>10d}{metrics.recovered:>11d}"
        print(line)
    if args.verify:
        print("\nall completed engines produced identical cubes")
    return 0


def cmd_sketch(args) -> int:
    from . import io as repro_io
    from .analysis import paper_cluster
    from .core import SPCube, build_exact_sketch
    from .relation import format_cuboid, format_group

    relation = _or_exit(repro_io.read_relation, args.input)
    cluster = _or_exit(
        paper_cluster, len(relation), num_machines=args.machines
    )
    m = cluster.derive_memory(len(relation))
    if args.exact:
        sketch = build_exact_sketch(relation, cluster.num_machines, m)
    else:
        run = SPCube(cluster).compute(relation)
        sketch = run.sketch

    schema = relation.schema
    summary = sketch.to_dict()
    print(f"SP-Sketch of {relation.name} "
          f"({'exact' if args.exact else 'sampled'}):")
    print(f"  serialized size: {summary['serialized_bytes']} bytes")
    print(f"  skewed c-groups: {summary['num_skewed']}")
    print(f"  partition elements: {summary['num_partition_elements']} "
          f"across {summary['num_cuboids']} cuboids")
    shown = 0
    for mask, values, count in sketch.skewed_groups():
        if shown >= args.limit:
            print(f"  ... ({sketch.num_skewed - shown} more)")
            break
        print(f"  {format_group(mask, values, schema):40s} "
              f"in {format_cuboid(mask, schema)}  (sample count {count})")
        shown += 1
    if args.output:
        size = repro_io.write_sketch(sketch, args.output)
        print(f"  written to {args.output} ({size} bytes)")
    return 0


def cmd_analyze_trace(args) -> int:
    # A malformed trace means every downstream number is suspect, so the
    # loader's schema check always runs: one line to stderr, nonzero
    # exit, no summary built from records that lie.
    from .observability import TraceAnalysis, TraceSchemaError

    try:
        analysis = TraceAnalysis.from_file(args.trace_file)
    except TraceSchemaError as error:
        print(f"trace schema violation: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.format == "json":
        import json

        print(json.dumps(analysis.summary_dict(), indent=2, sort_keys=True))
    else:
        print(analysis.format_summary())
    return 0


def cmd_metrics_export(args) -> int:
    from .observability import Telemetry, load_trace, replay

    try:
        records = load_trace(args.trace_file)
        text = replay(records, Telemetry()).prometheus_text()
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"exposition written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _explain_common(args, result) -> int:
    """Shared output path of the two explain commands."""
    from .observability import format_explain_markdown

    if args.format == "json":
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_explain_markdown(result), end="")
    return 0


def cmd_explain_reducer(args) -> int:
    from .observability import LineageIndex, explain_reducer

    try:
        index = LineageIndex.from_file(args.trace_file)
        result = explain_reducer(index, job=args.job, reducer=args.reducer)
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    return _explain_common(args, result)


def cmd_explain_group(args) -> int:
    from .observability import LineageIndex, explain_group, parse_cuboid

    try:
        cuboid = parse_cuboid(args.cuboid)
        index = LineageIndex.from_file(args.trace_file)
        result = explain_group(index, cuboid, job=args.job)
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    return _explain_common(args, result)


def cmd_report(args) -> int:
    from .analysis import write_report

    if not any(
        (args.trace, args.doctor_json, args.perf_json, args.recovery_json)
    ):
        raise SystemExit(
            "repro: error: report needs at least one input artifact "
            "(--trace/--doctor-json/--perf-json/--recovery-json)"
        )
    try:
        write_report(
            args.output,
            trace=args.trace,
            doctor=args.doctor_json,
            perf=args.perf_json,
            recovery=args.recovery_json,
            title=args.title,
        )
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    print(f"report written to {args.output}")
    return 0


def cmd_serve_cube(args) -> int:
    from .serving import CubeServer, StoredCubeView, StoreError

    try:
        view = StoredCubeView.open(
            args.store, segment_cache_size=args.segment_cache
        )
    except (OSError, StoreError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    try:
        server = CubeServer(
            view,
            workers=args.workers,
            queue_depth=args.queue_depth,
            deadline=args.deadline,
            port=args.port,
            result_cache=args.result_cache,
        )
    except ValueError as error:
        view.close()
        raise SystemExit(f"repro: error: {error}") from None
    except OSError as error:
        view.close()
        raise SystemExit(
            f"repro: error: cannot listen on 127.0.0.1:{args.port}: {error}"
        ) from None
    print(
        f"serving {args.store} "
        f"({len(view.store.masks)} cuboids, {view.store.total_groups} "
        f"groups) on http://127.0.0.1:{server.port} — POST /query, "
        f"GET /stats (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        server.close()
        view.close()
    return 0


def cmd_query(args) -> int:
    import json

    from .query.view import QueryError
    from .serving import StoredCubeView, StoreError, execute_query

    try:
        spec = json.loads(args.spec)
    except ValueError as error:
        raise SystemExit(
            f"repro: error: query spec is not valid JSON: {error}"
        ) from None
    try:
        with StoredCubeView.open(args.store) as view:
            result = execute_query(view, spec)
            if args.stats:
                print(
                    json.dumps(view.stats(), sort_keys=True),
                    file=sys.stderr,
                )
    except (OSError, StoreError, QueryError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_doctor(args) -> int:
    from .observability import format_doctor_markdown, run_doctor

    try:
        report = run_doctor(
            rows=args.rows,
            machines=args.machines,
            engines=args.engines,
            binomial_skews=args.binomial_skews,
            zipf_exponents=args.zipf_exponents,
            seed=args.seed,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    markdown = format_doctor_markdown(report)
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json_out}", file=sys.stderr)
    if args.markdown_out:
        with open(args.markdown_out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"markdown written to {args.markdown_out}", file=sys.stderr)
    print(markdown, end="")
    if args.strict and not report["healthy"]:
        return 1
    return 0


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    """Observability knobs shared by the cube-computing commands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the run's structured JSONL trace — the one artifact "
             "'repro analyze-trace', 'metrics-export', 'explain-reducer', "
             "'explain-group' and 'report --trace' all read",
    )
    group.add_argument(
        "--trace-level", choices=["job", "task", "debug"], default="task",
        help="trace detail: job = run/job/phase spans, task = + per-attempt "
             "spans, fault events and skew/straggler alerts, debug = + "
             "per-cuboid flow edges (explain-*), misannotation alerts, spills",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="print live per-job, per-fault and per-alert progress lines "
             "to stderr",
    )


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by the cube-computing commands."""
    parser.add_argument(
        "--memory-records", type=int, default=None, metavar="M",
        help="pin the per-machine memory budget m in records instead of "
             "the calibrated n/(4k) default; m is the skew threshold and "
             "the n/k + m load band the doctor and watchdog check against",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Fault-injection knobs shared by the cube-computing commands."""
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="inject seeded task crashes and stragglers, plus node losses "
             "with --node-crash-prob; the same seed reproduces the same "
             "faults",
    )
    group.add_argument(
        "--crash-prob", type=float, default=0.1, metavar="P",
        help="per-attempt crash probability when --fault-seed is given",
    )
    group.add_argument(
        "--straggle-prob", type=float, default=0.1, metavar="P",
        help="per-attempt straggler probability when --fault-seed is given",
    )
    group.add_argument(
        "--max-task-attempts", type=int, default=4, metavar="N",
        help="attempts per task before the job aborts (Hadoop default 4)",
    )
    group.add_argument(
        "--num-nodes", type=int, default=None, metavar="N",
        help="physical failure domains the machines are placed on "
             "(default: one node per machine)",
    )
    group.add_argument(
        "--node-crash-prob", type=float, default=0.0, metavar="P",
        help="per-node per-job probability of losing a whole node "
             "when --fault-seed is given",
    )
    group.add_argument(
        "--checkpoint", action=argparse.BooleanOptionalAction, default=True,
        help="keep each completed round (and a node-killed round's "
             "completed partitions) as a checkpoint and resume a "
             "node-killed round from it instead of aborting the run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SP-Cube: skew-resilient MapReduce cube computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a workload to a file")
    gen.add_argument(
        "dataset", choices=["binomial", "zipf", "wikipedia", "usagov"]
    )
    gen.add_argument("--rows", type=int, default=10_000)
    gen.add_argument("--skew", type=float, default=0.3,
                     help="binomial skew probability p")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(fn=cmd_generate)

    cube = sub.add_parser("cube", help="compute a cube from a file")
    cube.add_argument("input")
    cube.add_argument("--engine", choices=ENGINE_NAMES, default="spcube")
    cube.add_argument("--aggregate", default="count")
    cube.add_argument("--machines", type=int, default=20)
    cube.add_argument("-o", "--output")
    cube.add_argument(
        "--store", metavar="PATH", default=None,
        help="also write the cube as a serving store (query with "
             "'repro query PATH ...' or 'repro serve-cube PATH')",
    )
    _add_execution_args(cube)
    _add_fault_args(cube)
    _add_trace_args(cube)
    cube.set_defaults(fn=cmd_cube)

    compare = sub.add_parser("compare", help="run engines side by side")
    compare.add_argument(
        "dataset", choices=["binomial", "zipf", "wikipedia", "usagov"]
    )
    compare.add_argument("--rows", type=int, default=10_000)
    compare.add_argument("--skew", type=float, default=0.3)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--machines", type=int, default=20)
    compare.add_argument("--aggregate", default="count")
    compare.add_argument(
        "--engines",
        nargs="+",
        choices=ENGINE_NAMES,
        default=["spcube", "mrcube", "hive"],
    )
    compare.add_argument("--verify", action="store_true",
                         help="cross-check that all cubes agree")
    _add_execution_args(compare)
    _add_fault_args(compare)
    _add_trace_args(compare)
    compare.set_defaults(fn=cmd_compare)

    sketch = sub.add_parser("sketch", help="build and describe an SP-Sketch")
    sketch.add_argument("input")
    sketch.add_argument("--machines", type=int, default=20)
    sketch.add_argument("--exact", action="store_true",
                        help="build the exact (utopian) sketch")
    sketch.add_argument("--limit", type=int, default=10,
                        help="skewed groups to list")
    sketch.add_argument("-o", "--output", help="write the sketch as JSON")
    sketch.set_defaults(fn=cmd_sketch)

    analyze = sub.add_parser(
        "analyze-trace",
        help="summarize a trace file: per-reducer load, attempt chains, "
             "straggler timelines, recovery cost",
    )
    analyze.add_argument("trace_file")
    analyze.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text = the human-readable report, json = the stable "
             "machine-readable summary (schema_version 1, append-only keys)",
    )
    analyze.set_defaults(fn=cmd_analyze_trace)

    metrics_export = sub.add_parser(
        "metrics-export",
        help="derive the Prometheus text exposition from a trace written "
             "with --trace (task level or finer for per-reducer series)",
    )
    metrics_export.add_argument("trace_file")
    metrics_export.add_argument(
        "-o", "--output", metavar="PATH",
        help="write the exposition to a file instead of stdout",
    )
    metrics_export.set_defaults(fn=cmd_metrics_export)

    explain_reducer_p = sub.add_parser(
        "explain-reducer",
        help="walk a --trace-level debug trace from one reducer back to "
             "the cuboids, map tasks and input splits that loaded it "
             "(defaults to the hottest reducer of the dominant job)",
    )
    explain_reducer_p.add_argument("trace_file")
    explain_reducer_p.add_argument(
        "--job", default=None,
        help="job to explain (default: the job shuffling the most records)",
    )
    explain_reducer_p.add_argument(
        "--reducer", type=int, default=None, metavar="R",
        help="reducer partition id (default: the hottest one)",
    )
    explain_reducer_p.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
    )
    explain_reducer_p.set_defaults(fn=cmd_explain_reducer)

    explain_group_p = sub.add_parser(
        "explain-group",
        help="walk a --trace-level debug trace from one cuboid forward to "
             "the reducers and map tasks that carried its groups",
    )
    explain_group_p.add_argument("trace_file")
    explain_group_p.add_argument(
        "--cuboid", required=True, metavar="MASK",
        help="cuboid lattice mask (decimal, 0x hex or 0b binary)",
    )
    explain_group_p.add_argument(
        "--job", default=None,
        help="job to explain (default: the job shuffling the most records)",
    )
    explain_group_p.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
    )
    explain_group_p.set_defaults(fn=cmd_explain_group)

    report = sub.add_parser(
        "report",
        help="stitch a run's artifacts (trace, doctor audit, BENCH files) "
             "into one markdown file, each section the text of the "
             "command that renders it",
    )
    report.add_argument("--trace", metavar="PATH",
                        help="JSONL trace written with --trace (feeds the "
                             "Trace, Telemetry and Lineage & alerts sections)")
    report.add_argument("--doctor-json", metavar="PATH",
                        help="doctor report written with 'doctor --json'")
    report.add_argument("--perf-json", metavar="PATH",
                        help="JSONL written by benchmarks/suite/run.py --out")
    report.add_argument("--recovery-json", metavar="PATH",
                        help="BENCH_recovery.json from the recovery bench")
    report.add_argument("--title", default="repro run report")
    report.add_argument("-o", "--output", default="report.md")
    report.set_defaults(fn=cmd_report)

    serve_cube = sub.add_parser(
        "serve-cube",
        help="serve a cube store over HTTP: a thread per connection, "
             "bounded admission queue, per-query deadline, retriable load "
             "shedding; POST /query, GET /stats, GET /healthz",
    )
    serve_cube.add_argument("store", help="store file written with --store")
    serve_cube.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="bind 127.0.0.1:PORT (0 picks a free port)",
    )
    serve_cube.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="queries computed at once",
    )
    serve_cube.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admitted queries allowed to wait beyond the workers; "
             "requests past workers + N are shed with a retriable 503",
    )
    serve_cube.add_argument(
        "--deadline", type=float, default=5.0, metavar="SECONDS",
        help="per-query deadline; late answers return a retriable 504",
    )
    serve_cube.add_argument(
        "--segment-cache", type=int, default=16, metavar="N",
        help="decoded cuboid segments kept in the LRU cache",
    )
    serve_cube.add_argument(
        "--result-cache", type=int, default=128, metavar="N",
        help="encoded query replies kept in the server's LRU cache",
    )
    serve_cube.set_defaults(fn=cmd_serve_cube)

    query = sub.add_parser(
        "query",
        help="answer one OLAP query from a cube store, e.g. "
             "'{\"op\": \"rollup\", \"dimensions\": [\"a1\"]}'",
    )
    query.add_argument("store", help="store file written with --store")
    query.add_argument(
        "spec",
        help="JSON query spec: op = rollup | total | slice | drilldown "
             "| top | pivot | cuboid_sizes",
    )
    query.add_argument(
        "--stats", action="store_true",
        help="print the serving counters to stderr after answering",
    )
    query.set_defaults(fn=cmd_query)

    doctor = sub.add_parser(
        "doctor",
        help="audit sketch quality and load balance against exact ground "
             "truth on synthetic skew sweeps, with per-reducer load "
             "attribution and engine side-by-sides",
    )
    doctor.add_argument("--rows", type=int, default=4_000)
    doctor.add_argument("--machines", type=int, default=8)
    doctor.add_argument(
        "--engines", nargs="+", choices=ENGINE_NAMES,
        default=list(ENGINE_NAMES),
        help="engines for the side-by-side table (spcube always runs)",
    )
    doctor.add_argument(
        "--binomial-skews", nargs="*", type=float, default=[0.1, 0.4],
        metavar="P", help="gen-binomial skew probabilities to audit",
    )
    doctor.add_argument(
        "--zipf-exponents", nargs="*", type=float, default=[1.1, 1.6],
        metavar="S", help="gen-zipf exponents to audit",
    )
    doctor.add_argument("--seed", type=int, default=0)
    doctor.add_argument("--json", dest="json_out", metavar="PATH",
                        help="write the full report as JSON")
    doctor.add_argument("--markdown", dest="markdown_out", metavar="PATH",
                        help="write the markdown report to a file")
    doctor.add_argument("--strict", action="store_true",
                        help="exit 1 when the audit finds problems")
    doctor.set_defaults(fn=cmd_doctor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
