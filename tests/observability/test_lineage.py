"""Job views assembled from trace records, and loading them from a file."""

import pytest

from repro.mapreduce import cuboid_of_mask_key
from repro.observability import (
    JobAssembler,
    JsonlSink,
    LineageIndex,
    Tracer,
)

from .trace_records import attempt, event, flow, job_records, job_span


def close(assembler, records):
    """Feed ``records``; the view their final job span closed."""
    views = [assembler.write(record) for record in records]
    assert all(view is None for view in views[:-1])
    return views[-1]


class TestRecorder:
    def test_begin_stamps_execution_and_clock(self):
        assembler = JobAssembler()
        first = close(assembler, job_records({0: 6}, seconds=2.5))
        second = close(assembler, job_records({0: 6}, t0=2.5, seconds=2.5))
        other = close(assembler, job_records({0: 6}, name="other"))
        assert (first["execution"], first["t0"]) == (0, 0.0)
        assert (second["execution"], second["t0"]) == (1, 2.5)
        assert other["execution"] == 0  # executions count per job name

    def test_finish_records_duration_and_abort(self):
        view = close(
            JobAssembler(), job_records({0: 6}, seconds=1.25, aborted=True)
        )
        assert (view["t0"], view["t1"]) == (0.0, 1.25)
        assert view["aborted"] is True

    def test_records_follow_document_order(self):
        """Task rows come out in task order whatever order attempts
        arrived in; killed attempts stretch the chain, never win it."""
        view = close(JobAssembler(), [
            attempt("job", "reduce", 1, 12, 6, t0=0.0, t1=0.9),
            attempt("job", "reduce", 0, 9, 0, t0=0.0, t1=0.2, status="killed"),
            attempt("job", "reduce", 0, 6, 3, t0=0.7, t1=1.2, attempt=1),
            attempt("job", "map", 0, 5, 10, t0=0.0, t1=1.0),
            attempt("job", "map", 1, 5, 8, t0=0.0, t1=0.3, status="killed"),
            flow("job", 0, 0, 6, {3: 4, 1: 2}),
            flow("job", 1, 1, 12, {3: 12}),
            event("round_resume", "job", salvaged_partitions=[2]),
            job_span("job", num_reducers=3, map_tasks=2, memory_records=16),
        ])
        assert view["reduces"] == [
            {"task": 0, "records_in": 6, "records_out": 3, "seconds": 1.2},
            {"task": 1, "records_in": 12, "records_out": 6, "seconds": 0.9},
        ]
        # Map task 1 exhausted its chain: no winner, no row.
        assert [row["task"] for row in view["maps"]] == [0]
        assert view["flows"][0] == {
            "map_task": 0, "reducer": 0, "records": 6, "bytes": 60,
            "cuboids": {"3": 4, "1": 2},
        }
        assert view["completed_reducers"] == [2]
        assert (view["num_reducers"], view["memory_records"]) == (3, 16)

    def test_write_then_load_round_trips(self, tmp_path):
        """The index built live as a sink equals the one loaded from the
        JSONL the same tracer wrote."""
        path = str(tmp_path / "run.trace.jsonl")
        live = LineageIndex()
        tracer = Tracer([JsonlSink(path), live], level="debug")
        for record in job_records(
            {0: 6, 1: 12}, flows=[(0, 0, 6, {3: 6}), (0, 1, 12, {3: 12})]
        ) + [event("skew_alert", "job", at=4.0, reducer=1, observed=12)]:
            tracer.emit(record)
        tracer.close()
        loaded = LineageIndex.from_file(path)
        assert loaded.jobs == live.jobs and live.jobs
        assert loaded.alerts == live.alerts == [
            {"kind": "skew_alert", "job": "job", "at": 4.0, "reducer": 1,
             "observed": 12},
        ]


class TestCuboidClassifier:
    def test_mask_key_classifier(self):
        assert cuboid_of_mask_key((5, (1, 2))) == 5
        assert cuboid_of_mask_key((0b11, (7,), 2)) == 3


class TestLoadLineage:
    """``LineageIndex.from_file`` goes through the one trace loader."""

    VALID = ('{"type": "event", "kind": "spill", "at": 0, "fields": {}, '
             '"seq": 0}\n')

    def write(self, tmp_path, text):
        path = tmp_path / "artifact.jsonl"
        path.write_text(text)
        return str(path)

    def test_truncated_line_names_the_line(self, tmp_path):
        path = self.write(tmp_path, self.VALID + '{"type": "span", "kin')
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            LineageIndex.from_file(path)

    def test_scalar_line_names_the_line(self, tmp_path):
        path = self.write(tmp_path, self.VALID + "42\n")
        with pytest.raises(ValueError, match=r":2: .*got int"):
            LineageIndex.from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ValueError, match="empty trace"):
            LineageIndex.from_file(path)

    def test_wrong_head_rejected(self, tmp_path):
        """A pre-trace ``.lineage.jsonl`` file is a foreign dialect."""
        path = self.write(
            tmp_path,
            '{"type": "lineage_meta", "version": 1, "run_id": "r"}\n',
        )
        with pytest.raises(ValueError, match=r":1: type must be"):
            LineageIndex.from_file(path)
