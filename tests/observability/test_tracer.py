"""Tracer, sinks, and levels."""

import io
import json

import pytest

from repro.observability import (
    LEVEL_DEBUG,
    LEVEL_JOB,
    LEVEL_OFF,
    LEVEL_TASK,
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    ProgressSink,
    Tracer,
    attempt_counters,
    level_from_name,
    record_problems,
)


class TestLevels:
    def test_names_map_to_levels(self):
        assert level_from_name("off") == LEVEL_OFF
        assert level_from_name("job") == LEVEL_JOB
        assert level_from_name("task") == LEVEL_TASK
        assert level_from_name("debug") == LEVEL_DEBUG

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown trace level"):
            level_from_name("verbose")

    def test_tracer_accepts_level_names(self):
        tracer = Tracer([], level="debug")
        assert tracer.level == LEVEL_DEBUG

    def test_tracer_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Tracer([], level=7)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.level == LEVEL_OFF
        NULL_TRACER.emit({"anything": 1})
        NULL_TRACER.span("job", name="x")
        NULL_TRACER.event("crash", at=0.0)
        NULL_TRACER.advance(10.0)
        NULL_TRACER.close()
        assert NULL_TRACER.clock == 0.0


class TestTracer:
    def test_seq_is_monotonic_emission_order(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        tracer.event("crash", at=5.0)
        tracer.event("crash", at=1.0)
        tracer.span("job", name="j", job="j", t0=0.0, t1=2.0)
        assert [r["seq"] for r in sink.records] == [0, 1, 2]

    def test_span_defaults_and_overrides(self):
        sink = MemorySink()
        Tracer([sink]).span(
            "run", name="x", t0=0.0, t1=1.0, status="failed",
            counters={"attempts": 3},
        )
        (record,) = sink.records
        assert record["status"] == "failed"
        assert record["counters"] == {"attempts": 3}

    def test_event_payload_goes_under_fields(self):
        sink = MemorySink()
        Tracer([sink]).event(
            "straggle", at=2.0, job="j", fields={"factor": 4.0}
        )
        (record,) = sink.records
        assert record["fields"] == {"factor": 4.0}
        assert record["job"] == "j"

    def test_clock_accumulates(self):
        tracer = Tracer([])
        tracer.advance(10.0)
        tracer.advance(5.5)
        assert tracer.clock == 15.5

    def test_fan_out_to_all_sinks(self):
        sinks = [MemorySink(), MemorySink()]
        Tracer(sinks).event("shuffle", at=0.0)
        assert len(sinks[0]) == len(sinks[1]) == 1


class TestMemorySink:
    def test_ring_buffer_evicts_oldest(self):
        sink = MemorySink(capacity=2)
        tracer = Tracer([sink])
        for _ in range(3):
            tracer.event("spill", at=0.0)
        assert [r["seq"] for r in sink.records] == [1, 2]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)


class TestJsonlSink(object):
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonlSink(path)])
        tracer.event("crash", at=1.0, job="j")
        tracer.span("job", name="j", job="j", t0=0.0, t1=2.0)
        tracer.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2
        assert not [p for r in records for p in record_problems(r)]
        assert records[0]["kind"] == "crash"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()


class TestProgressSink:
    def test_prints_job_and_fault_lines_only(self):
        stream = io.StringIO()
        tracer = Tracer([ProgressSink(stream)], level=LEVEL_DEBUG)
        tracer.span("job", name="j", job="j", t0=0.0, t1=2.0,
                    counters={"map_output_records": 5})
        tracer.event("crash", at=1.0, job="j", phase="map", task=3)
        # Attempt spans and debug events must stay silent.
        tracer.span("attempt", name="map", job="j", phase="map", task=0,
                    attempt=0, t0=0.0, t1=1.0)
        tracer.event("route", at=1.0, job="j", phase="map", task=0)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[job ]")
        assert "crash at j/map/3" in lines[1]


class TestProgressSinkFaultDomainLines:
    """Rendering of the failure-domain events (satellite of the
    telemetry PR): node losses, checkpoint commits, round resumes."""

    def render(self, kind, at, job, **payload):
        stream = io.StringIO()
        tracer = Tracer([ProgressSink(stream)], level=LEVEL_DEBUG)
        tracer.event(kind, at=at, job=job, fields=payload)
        return stream.getvalue().strip().splitlines()

    def test_node_lost_line(self):
        lines = self.render("node_lost", at=12.5, job="sp-cube", node=3)
        assert lines == ["[fault] node 3 lost during sp-cube (t=12.5s)"]

    def test_checkpoint_write_line(self):
        lines = self.render(
            "checkpoint_write", at=30.0, job="sp-cube",
            round=1, num_parts=8, path="ckpt/round-1",
        )
        assert lines == [
            "[ckpt ] round 1 checkpointed (8 parts, t=30.0s)"
        ]

    def test_round_resume_line(self):
        lines = self.render(
            "round_resume", at=44.25, job="sp-cube", round=2,
            salvaged_partitions=[0, 1, 5], replaced_nodes=[3, 4],
        )
        assert lines == [
            "[ckpt ] resuming round 2 (sp-cube): 3 partitions "
            "salvaged, nodes [3, 4] replaced"
        ]

    def test_round_resume_without_salvage(self):
        lines = self.render(
            "round_resume", at=1.0, job="sp-cube", round=0,
            salvaged_partitions=[], replaced_nodes=[],
        )
        assert lines == [
            "[ckpt ] resuming round 0 (sp-cube): 0 partitions "
            "salvaged, nodes [] replaced"
        ]


class TestAttemptCounters:
    def test_carries_the_standard_counters_only(self):
        from repro.mapreduce import TaskMetrics

        task = TaskMetrics(records_in=4, records_out=2, bytes_out=20)
        assert attempt_counters(task) == {
            "records_in": 4, "records_out": 2, "bytes_in": 0,
            "bytes_out": 20, "cpu_ops": 0, "spilled_records": 0,
            "peak_group_records": 0,
        }
