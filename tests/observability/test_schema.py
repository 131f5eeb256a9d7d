"""Trace record schema validation."""

import pytest

from repro.observability import (
    TraceSchemaError,
    record_problems,
    validate_record,
)


def span(**overrides):
    record = {
        "type": "span", "kind": "attempt", "name": "map", "job": "j",
        "phase": "map", "task": 0, "attempt": 0, "t0": 0.0, "t1": 1.0,
        "status": "ok", "counters": {"records_in": 3}, "seq": 0,
    }
    record.update(overrides)
    return record


def event(**overrides):
    record = {
        "type": "event", "kind": "crash", "job": "j", "phase": "map",
        "task": 0, "attempt": 0, "at": 1.0, "fields": {"lost_seconds": 1.0},
        "seq": 1,
    }
    record.update(overrides)
    return record


class TestSpanSchema:
    def test_valid_span(self):
        assert record_problems(span()) == []

    def test_run_span_needs_only_name(self):
        record = span(kind="run", name="SP-Cube")
        for field in ("job", "phase", "task", "attempt"):
            record.pop(field)
        assert record_problems(record) == []

    def test_bad_kind(self):
        assert record_problems(span(kind="nope"))

    def test_bad_status(self):
        assert record_problems(span(status="done"))

    def test_missing_counters(self):
        record = span()
        del record["counters"]
        assert record_problems(record)

    def test_non_numeric_counter_value(self):
        assert record_problems(span(counters={"records_in": "three"}))

    def test_reversed_interval(self):
        problems = record_problems(span(t0=5.0, t1=1.0))
        assert any("ends before" in p for p in problems)

    def test_bool_task_rejected(self):
        # bool is an int subclass; the schema must not accept it.
        assert record_problems(span(task=True))

    def test_attempt_span_needs_job_string(self):
        assert record_problems(span(job=7))


class TestEventSchema:
    def test_valid_event(self):
        assert record_problems(event()) == []

    def test_every_documented_kind_validates(self):
        from repro.observability import EVENT_KINDS

        for kind in EVENT_KINDS:
            assert record_problems(event(kind=kind)) == []

    def test_bad_kind(self):
        assert record_problems(event(kind="explosion"))

    def test_missing_at(self):
        record = event()
        del record["at"]
        assert record_problems(record)

    def test_fields_must_be_dict(self):
        assert record_problems(event(fields=[1, 2]))


class TestRecoveryEventRoundTrip:
    """The failure-domain event kinds survive a JSONL write/read/validate."""

    def test_new_kinds_round_trip_through_a_tracer(self, tmp_path):
        from repro.observability import JsonlSink, Tracer
        from repro.observability.analyze import load_trace

        path = tmp_path / "recovery.jsonl"
        tracer = Tracer([JsonlSink(path)], level="task")
        tracer.event("node_lost", at=1.0, job="r2",
                     fields={"node": 1, "machines": [1, 4]})
        tracer.event("round_resume", at=2.0, job="r2",
                     fields={"round": 1, "salvaged_partitions": [0],
                             "replaced_nodes": [1]})
        tracer.event("checkpoint_write", at=3.0, job="r2",
                     fields={"round": 1, "num_parts": 6, "run_clock": 3.0})
        tracer.close()
        records = load_trace(path)
        for record in records:
            validate_record(record)
        assert [r["kind"] for r in records] == [
            "node_lost", "round_resume", "checkpoint_write",
        ]
        assert records[0]["fields"] == {"node": 1, "machines": [1, 4]}
        assert records[1]["fields"]["salvaged_partitions"] == [0]
        assert records[2]["fields"]["num_parts"] == 6


class TestValidators:
    def test_validate_record_raises(self):
        with pytest.raises(TraceSchemaError, match="status"):
            validate_record(span(status="nope"))

    def test_non_dict_record(self):
        assert record_problems("not a record")

    def test_missing_seq(self):
        record = span()
        del record["seq"]
        assert record_problems(record)

    def test_negative_seq(self):
        assert record_problems(span(seq=-1))
