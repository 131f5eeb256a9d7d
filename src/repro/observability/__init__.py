"""Observability for the simulated cluster: tracing, counters, analysis.

The paper's evaluation is an observability exercise — running time,
per-task averages, shuffled bytes, sketch size — and the fault layer and
parallel executor add per-task dynamics (retries, speculation, spills)
that post-hoc aggregates cannot show.  This package provides:

* :class:`Tracer` + sinks — structured span/event records emitted by the
  engine and the cube engines (:mod:`repro.observability.tracer`);
* the record schema and its validator
  (:mod:`repro.observability.schema`);
* :class:`TraceAnalysis` — per-reducer load, attempt chains and
  straggler timelines reconstructed from a trace file
  (:mod:`repro.observability.analyze`);
* three *derivations* of that one record stream, each a sink with a
  ``write(record)`` face that runs live on a tracer or offline over a
  trace file (:func:`replay`): :class:`Telemetry` (metrics registry and
  its Prometheus text — :mod:`repro.observability.telemetry`),
  :class:`Watchdog` (online skew / misannotation / straggler alerts
  against the sketch's ``n/k + m`` promise, re-entering the stream as
  events — :mod:`repro.observability.watchdog`) and :class:`LineageIndex`
  (per-(map task, reducer, cuboid) flow edges behind the
  ``explain-group`` / ``explain-reducer`` queries —
  :mod:`repro.observability.explain`).

Attach a tracer to a :class:`~repro.mapreduce.ClusterConfig` and every
job run on that cluster is traced::

    from repro.observability import JsonlSink, Tracer

    tracer = Tracer([JsonlSink("run.trace.jsonl")], level="task")
    cluster = ClusterConfig(num_machines=20, tracer=tracer)
    SPCube(cluster).compute(relation)
    tracer.close()

or use the CLI: ``python -m repro cube data.tsv --trace run.trace.jsonl``
then ``analyze-trace`` / ``metrics-export`` / ``explain-reducer`` /
``report --trace`` on that one file.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analyze": ["TraceAnalysis", "load_trace"],
    "diagnostics": [
        "audit_problems", "audit_sketch", "format_doctor_markdown",
        "run_doctor",
    ],
    "explain": [
        "ExplainError", "LineageIndex", "explain_group", "explain_reducer",
        "format_explain_markdown", "parse_cuboid",
    ],
    "lineage": ["JobAssembler"],
    "schema": [
        "ALERT_KINDS", "EVENT_KINDS", "SPAN_KINDS", "SPAN_STATUSES",
        "TraceSchemaError", "record_problems", "validate_record",
    ],
    "telemetry": [
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "Telemetry",
    ],
    "tracer": [
        "LEVEL_DEBUG", "LEVEL_JOB", "LEVEL_OFF", "LEVEL_TASK", "NULL_TRACER",
        "JsonlSink", "MemorySink", "NullTracer", "ProgressSink", "Tracer",
        "attempt_counters", "emit_run_span", "level_from_name", "replay",
    ],
    "watchdog": ["SKEW_TOLERANCE", "STRAGGLER_FACTOR", "Watchdog"],
})
