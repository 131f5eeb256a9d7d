"""The trace record schema — the contract between emitters and analyzers.

Every record the :class:`~repro.observability.tracer.Tracer` emits is a
flat JSON-serializable dict of one of two shapes:

**Span** — something with simulated duration::

    {
        "type": "span",
        "kind": "run" | "job" | "phase" | "attempt",
        "name": str,            # run: algorithm; job: job name;
                                # phase: "map"/"reduce"; attempt: "<phase>"
        "job": str,             # job/phase/attempt spans
        "phase": "map"|"reduce",# phase/attempt spans
        "task": int,            # attempt spans: task (machine) index
        "attempt": int,         # attempt spans: attempt index in the chain
        "t0": float, "t1": float,  # simulated seconds since trace start
        "status": "ok" | "killed" | "speculative" | "aborted" | "failed",
        "counters": {str: int|float},
        "seq": int,             # emission order, assigned by the tracer
    }

**Event** — something instantaneous::

    {
        "type": "event",
        "kind": "crash" | "straggle" | "speculation" | "spill" | "flow"
              | "shuffle" | "sketch" | "abort"
              | "node_lost" | "checkpoint_write" | "round_resume"
              | "skew_alert" | "misannotation_alert"
              | "straggler_alert",
        "job": str, "phase": str, "task": int, "attempt": int,  # optional
        "at": float,            # simulated seconds since trace start
        "fields": {...},        # kind-specific payload
        "seq": int,
    }

Simulated times are cumulative across an engine's rounds (and across
engines sharing one tracer), so a single trace file carries a global
timeline.  All tasks of a phase start when the phase's round startup
completes — the simulator's model of a fully parallel wave.

:func:`validate_record` enforces this schema without any third-party
dependency; :func:`~repro.observability.analyze.load_trace` runs the
same check over every record it reads, so every trace consumer
(``python -m repro analyze-trace TRACE`` among them) rejects a
malformed file.
"""

from __future__ import annotations

from typing import Dict, List

#: Span kinds, outermost first.
SPAN_KINDS = ("run", "job", "phase", "attempt")

#: Alert kinds the watchdog derives from the stream, in check order.
ALERT_KINDS = ("skew_alert", "misannotation_alert", "straggler_alert")

#: Event kinds: what the engine, fault layer and engines emit, plus the
#: watchdog's alerts, which re-enter the stream as ordinary events.
EVENT_KINDS = (
    "crash",
    "straggle",
    "speculation",
    "spill",
    "flow",
    "shuffle",
    "sketch",
    "abort",
    "node_lost",
    "checkpoint_write",
    "round_resume",
) + ALERT_KINDS

#: Allowed values of a span's ``status`` field.
SPAN_STATUSES = ("ok", "killed", "speculative", "aborted", "failed")

_PHASES = ("map", "reduce")


class TraceSchemaError(ValueError):
    """A trace record does not conform to the documented schema."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def record_problems(record) -> List[str]:
    """All schema violations of one record (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not a dict"]
    rtype = record.get("type")
    if rtype == "span":
        problems.extend(_span_problems(record))
    elif rtype == "event":
        problems.extend(_event_problems(record))
    else:
        problems.append(f"type must be 'span' or 'event', got {rtype!r}")
        return problems
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append(f"seq must be a non-negative int, got {seq!r}")
    return problems


def _span_problems(record: Dict) -> List[str]:
    problems: List[str] = []
    kind = record.get("kind")
    if kind not in SPAN_KINDS:
        problems.append(f"span kind must be one of {SPAN_KINDS}, got {kind!r}")
        return problems
    if kind in ("run", "job") and not isinstance(record.get("name"), str):
        problems.append(f"{kind} span needs a string 'name'")
    if kind in ("job", "phase", "attempt") and not isinstance(
        record.get("job"), str
    ):
        problems.append(f"{kind} span needs a string 'job'")
    if kind in ("phase", "attempt") and record.get("phase") not in _PHASES:
        problems.append(f"{kind} span needs phase in {_PHASES}")
    if kind == "attempt":
        for field in ("task", "attempt"):
            value = record.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"attempt span needs int {field!r}")
    t0, t1 = record.get("t0"), record.get("t1")
    if not _is_number(t0) or not _is_number(t1):
        problems.append("span needs numeric t0 and t1")
    elif t1 < t0:
        problems.append(f"span ends before it starts (t0={t0}, t1={t1})")
    status = record.get("status")
    if status not in SPAN_STATUSES:
        problems.append(
            f"span status must be one of {SPAN_STATUSES}, got {status!r}"
        )
    counters = record.get("counters")
    if not isinstance(counters, dict):
        problems.append("span needs a 'counters' dict")
    else:
        for key, value in counters.items():
            if not isinstance(key, str) or not _is_number(value):
                problems.append(f"counter {key!r}={value!r} is not str->number")
                break
    return problems


def _event_problems(record: Dict) -> List[str]:
    problems: List[str] = []
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(
            f"event kind must be one of {EVENT_KINDS}, got {kind!r}"
        )
        return problems
    if not _is_number(record.get("at")):
        problems.append("event needs a numeric 'at'")
    if not isinstance(record.get("fields"), dict):
        problems.append("event needs a 'fields' dict")
    for field in ("task", "attempt"):
        if field in record:
            value = record[field]
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"event {field!r} must be an int")
    return problems


def validate_record(record) -> None:
    """Raise :class:`TraceSchemaError` if ``record`` violates the schema."""
    problems = record_problems(record)
    if problems:
        raise TraceSchemaError(
            f"invalid trace record {record!r}: " + "; ".join(problems)
        )
