"""Structured tracing for the simulated cluster.

A :class:`Tracer` receives typed span/event records (see
:mod:`repro.observability.schema`) from the engine, the fault layer and
the cube engines, stamps each with a monotonically increasing ``seq``,
and fans it out to pluggable sinks:

* :class:`MemorySink` — bounded in-process ring buffer (tests, ad hoc
  inspection);
* :class:`JsonlSink` — one JSON object per line, the archival format the
  analyzer (:mod:`repro.observability.analyze`) consumes;
* :class:`ProgressSink` — a human-readable live reporter printing one
  line per job/phase completion and per injected fault.

**Derivations.**  A sink is anything with ``write(record)``.  The
:class:`~repro.observability.watchdog.Watchdog`,
:class:`~repro.observability.telemetry.Telemetry` and
:class:`~repro.observability.explain.LineageIndex` are sinks that build
their view from the records alone, so the same code runs live on a
tracer and offline over a trace file (:func:`replay`).  ``write`` may
return follow-up records (the watchdog's alerts); the tracer emits them
*after* every sink has seen the record that caused them, so each sink
sees a job's alerts right after that job's span, in ``seq`` order.

The default tracer everywhere is the singleton :data:`NULL_TRACER`, whose
methods are no-ops and whose ``enabled`` flag lets hot paths skip even
building a record — a traced-off run does no per-record work at all.

**Parallel-merge semantics.**  Task attempts may run interleaved on
threads, in no fixed order.  The attempt-chain driver
(:func:`repro.mapreduce.executor.run_task_chain`) therefore buffers its
records *chain-locally* into the returned
:class:`~repro.mapreduce.executor.TaskOutcome`; the engine's driver-side
merge loop — which already consumes outcomes in task-index order to keep
cubes bit-identical across backends — offsets the buffered records onto
the simulated timeline and emits them.  Trace files are thus byte-
identical between serial and parallel backends.

**Simulated clock.**  ``Tracer.clock`` is the cumulative simulated time
of everything traced so far; :func:`repro.mapreduce.engine.run_job`
advances it by each round's ``total_seconds``, so multi-round engines
(and several engines sharing a tracer) lay out on one global timeline.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional

from .schema import EVENT_KINDS, SPAN_KINDS  # noqa: F401  (re-exported)

#: Trace levels, coarse to fine.  ``job`` records run/job/phase spans and
#: job-level events; ``task`` adds per-attempt spans and fault events;
#: ``debug`` adds per-(map task, reducer) flow events and spill events.
LEVEL_OFF = 0
LEVEL_JOB = 1
LEVEL_TASK = 2
LEVEL_DEBUG = 3

LEVEL_NAMES = {"off": LEVEL_OFF, "job": LEVEL_JOB, "task": LEVEL_TASK,
               "debug": LEVEL_DEBUG}


def level_from_name(name: str) -> int:
    """Numeric trace level for a CLI-style name."""
    try:
        return LEVEL_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown trace level {name!r}; choose from "
            f"{sorted(LEVEL_NAMES)}"
        ) from None


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    ``enabled`` is False so call sites guard record construction with a
    single attribute check; ``level`` is ``LEVEL_OFF`` so level-gated
    emitters (task buffers, flow events) never activate.
    """

    enabled = False
    level = LEVEL_OFF
    clock = 0.0
    seq = 0

    def emit(self, record: Dict) -> None:
        pass

    def span(self, kind: str, **fields) -> None:
        pass

    def event(self, kind: str, at: float, **fields) -> None:
        pass

    def advance(self, seconds: float) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared no-op tracer; safe because it carries no state.
NULL_TRACER = NullTracer()


class Tracer:
    """Stamp records with ``seq`` and dispatch them to the sinks."""

    enabled = True

    def __init__(self, sinks: Iterable, level: int = LEVEL_TASK):
        if isinstance(level, str):
            level = level_from_name(level)
        if not LEVEL_OFF <= level <= LEVEL_DEBUG:
            raise ValueError(f"trace level must be in [0, 3], got {level}")
        self.sinks = list(sinks)
        self.level = level
        #: Cumulative simulated seconds traced so far (see module doc).
        self.clock = 0.0
        #: ``seq`` the next record will carry (= records emitted so far).
        self.seq = 0

    def emit(self, record: Dict) -> None:
        """Assign the next ``seq`` and hand the record to every sink, then
        emit whatever follow-up records the sinks derived from it."""
        record["seq"] = self.seq
        self.seq += 1
        derived: List[Dict] = []
        for sink in self.sinks:
            derived.extend(sink.write(record) or ())
        for follow_up in derived:
            self.emit(follow_up)

    def span(self, kind: str, **fields) -> None:
        """Emit a span record; ``t0``/``t1``/``name`` come via ``fields``."""
        record = {"type": "span", "kind": kind, "status": "ok",
                  "counters": {}}
        record.update(fields)
        self.emit(record)

    def event(self, kind: str, at: float, **fields) -> None:
        """Emit an event record at simulated time ``at``."""
        payload = fields.pop("fields", {})
        record = {"type": "event", "kind": kind, "at": at, "fields": payload}
        record.update(fields)
        self.emit(record)

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock (one round finished)."""
        self.clock += seconds

    def close(self) -> None:
        """Flush and close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class MemorySink:
    """Bounded in-memory ring buffer of records (oldest evicted first)."""

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buffer: deque = deque(maxlen=capacity)

    def write(self, record: Dict) -> None:
        self._buffer.append(record)

    @property
    def records(self) -> List[Dict]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Append records to a file as JSON lines — the archival format."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", encoding="utf-8")

    def write(self, record: Dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True))
        self._file.write("\n")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class ProgressSink:
    """Human-readable live progress: one line per job/phase and fault.

    Intended for a terminal (``--progress``); ignores attempt spans and
    debug records so the output stays one screenful even on large runs.
    """

    def __init__(self, stream=None):
        if stream is None:
            import sys

            stream = sys.stderr
        self._stream = stream

    def write(self, record: Dict) -> None:
        line = self._format(record)
        if line is not None:
            self._stream.write(line + "\n")

    def _format(self, record: Dict) -> Optional[str]:
        kind = record.get("kind")
        if record.get("type") == "span":
            seconds = record.get("t1", 0.0) - record.get("t0", 0.0)
            counters = record.get("counters", {})
            if kind == "run":
                return (
                    f"[run ] {record.get('name')}: {seconds:.1f}s simulated, "
                    f"{counters.get('attempts', 0)} attempts, "
                    f"status {record.get('status')}"
                )
            if kind == "job":
                return (
                    f"[job ] {record.get('name')}: {seconds:.1f}s, "
                    f"{counters.get('map_output_records', 0)} pairs shuffled, "
                    f"status {record.get('status')}"
                )
            if kind == "phase":
                return (
                    f"[{record.get('phase'):<5s}] {record.get('job')}: "
                    f"{counters.get('tasks', 0)} tasks, {seconds:.1f}s"
                )
            return None
        if kind in ("crash", "straggle", "speculation", "abort"):
            where = (
                f"{record.get('job')}/{record.get('phase')}/"
                f"{record.get('task')}"
            )
            return f"[fault] {kind} at {where} (t={record.get('at', 0):.1f}s)"
        if kind == "node_lost":
            fields = record.get("fields", {})
            return (
                f"[fault] node {fields.get('node')} lost during "
                f"{record.get('job')} (t={record.get('at', 0):.1f}s)"
            )
        if kind == "checkpoint_write":
            fields = record.get("fields", {})
            return (
                f"[ckpt ] round {fields.get('round')} checkpointed "
                f"({fields.get('num_parts')} parts, "
                f"t={record.get('at', 0):.1f}s)"
            )
        if kind == "round_resume":
            fields = record.get("fields", {})
            salvaged = fields.get("salvaged_partitions", [])
            return (
                f"[ckpt ] resuming round {fields.get('round')} "
                f"({record.get('job')}): {len(salvaged)} partitions "
                f"salvaged, nodes {fields.get('replaced_nodes')} replaced"
            )
        if kind == "skew_alert":
            fields = record.get("fields", {})
            return (
                f"[watch] skew_alert {record.get('job')}: reducer "
                f"{fields.get('reducer')} got {fields.get('observed')} "
                f"records, {fields.get('ratio', 0):.1f}x the n/k + m band "
                f"({fields.get('bound', 0):.0f})"
            )
        if kind == "misannotation_alert":
            fields = record.get("fields", {})
            cuboid = fields.get("cuboid")
            label = f"{cuboid:#x}" if isinstance(cuboid, int) else cuboid
            return (
                f"[watch] misannotation_alert {record.get('job')}: cuboid "
                f"{label} put {fields.get('observed')} records on reducer "
                f"{fields.get('reducer')} — value-partitioned but behaving "
                f"like a batch cuboid"
            )
        if kind == "straggler_alert":
            fields = record.get("fields", {})
            return (
                f"[watch] straggler_alert {record.get('job')}/"
                f"{fields.get('phase')}: task {fields.get('task')} ran "
                f"{fields.get('seconds', 0):.1f}s, "
                f"{fields.get('ratio', 0):.1f}x the phase median "
                f"({fields.get('median_seconds', 0):.1f}s)"
            )
        return None


def replay(records: Iterable[Dict], sink):
    """Feed recorded trace records to a derivation sink, offline.

    Follow-up records the sink returns are dropped: a recorded stream
    already carries them.  Returns the sink, so
    ``replay(load_trace(path), Telemetry())`` reads as a value.
    """
    for record in records:
        sink.write(record)
    return sink


def emit_run_span(tracer, metrics, base: float) -> None:
    """Emit one algorithm execution's ``run`` span.

    Called by every cube engine at the end of ``compute`` with the clock
    value it saw at the start; the span covers ``[base, tracer.clock]``
    (the jobs in between advanced the clock) and carries the run's
    headline counters so the analyzer can summarize without re-deriving
    them from job spans.  Every engine's span carries the same counters.
    """
    if not tracer.enabled:
        return
    if metrics.aborted:
        status = "aborted"
    elif metrics.failed:
        status = "failed"
    else:
        status = "ok"
    tracer.span(
        "run", name=metrics.algorithm,
        t0=base, t1=base + metrics.total_seconds, status=status,
        counters={
            "jobs": len(metrics.jobs),
            "output_groups": metrics.output_groups,
            "intermediate_bytes": metrics.intermediate_bytes,
            "intermediate_records": metrics.intermediate_records,
            "attempts": metrics.attempts,
            "killed_tasks": metrics.killed_tasks,
            "speculative_wins": metrics.speculative_wins,
            "recovered": metrics.recovered,
            "recovery_overhead_seconds": metrics.recovery_overhead(),
        },
    )


def attempt_counters(task) -> Dict[str, float]:
    """The standard counters of one task attempt, from its metrics.

    Shared by the chain-local buffer (executor) and any driver-side
    emitter so attempt spans always carry the same counter set.
    """
    return {
        "records_in": task.records_in,
        "records_out": task.records_out,
        "bytes_in": task.bytes_in,
        "bytes_out": task.bytes_out,
        "cpu_ops": task.cpu_ops,
        "spilled_records": task.spilled_records,
        "peak_group_records": task.peak_group_records,
    }
