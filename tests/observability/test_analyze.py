"""Trace analyzer: chains, counters, histograms, timelines."""

import pytest

from repro.observability import TraceAnalysis, TraceSchemaError, load_trace


def attempt(job, phase, task, att, t0, t1, status="ok", records_in=0):
    return {
        "type": "span", "kind": "attempt", "name": phase, "job": job,
        "phase": phase, "task": task, "attempt": att, "t0": t0, "t1": t1,
        "status": status, "counters": {"records_in": records_in}, "seq": 0,
    }


def spec_event(job, phase, task, att, at, won):
    return {
        "type": "event", "kind": "speculation", "job": job, "phase": phase,
        "task": task, "attempt": att, "at": at, "fields": {"won": won},
        "seq": 0,
    }


def with_seq(records):
    for index, record in enumerate(records):
        record["seq"] = index
    return records


@pytest.fixture
def faulted_records():
    """Two reduce chains of job 'j': task 0 crashes once then wins on
    attempt 1; task 1 wins first try via a speculative backup."""
    return with_seq([
        attempt("j", "reduce", 0, 0, 0.0, 4.0, status="killed"),
        {
            "type": "event", "kind": "crash", "job": "j", "phase": "reduce",
            "task": 0, "attempt": 0, "at": 4.0, "fields": {}, "seq": 0,
        },
        attempt("j", "reduce", 0, 1, 16.0, 20.0, records_in=8),
        spec_event("j", "reduce", 1, 0, 0.0, won=True),
        attempt("j", "reduce", 1, 0, 0.0, 6.0, status="speculative",
                records_in=5),
        {
            "type": "span", "kind": "phase", "name": "reduce", "job": "j",
            "phase": "reduce", "t0": 0.0, "t1": 25.0, "status": "ok",
            "counters": {"tasks": 2}, "seq": 0,
        },
        {
            "type": "span", "kind": "job", "name": "j", "job": "j",
            "t0": 0.0, "t1": 25.0, "status": "ok",
            "counters": {"map_output_records": 13}, "seq": 0,
        },
    ])


class TestCounters:
    def test_attempts_count_backups(self, faulted_records):
        analysis = TraceAnalysis(faulted_records)
        # 3 attempt spans + 1 speculative backup (event only).
        assert analysis.total_attempts() == 4

    def test_killed_counts_losing_copies(self, faulted_records):
        analysis = TraceAnalysis(faulted_records)
        # 1 crashed span + 1 losing speculative copy.
        assert analysis.killed_attempts() == 2

    def test_speculative_wins(self, faulted_records):
        assert TraceAnalysis(faulted_records).speculative_wins() == 1

    def test_recovered(self, faulted_records):
        # Task 0 won on attempt 1; task 1 won via backup: both recovered.
        assert TraceAnalysis(faulted_records).recovered() == 2

    def test_job_filter(self, faulted_records):
        analysis = TraceAnalysis(faulted_records)
        assert analysis.total_attempts("other-job") == 0


class TestChainsAndLoads:
    def test_attempt_chains_ordered(self, faulted_records):
        chains = TraceAnalysis(faulted_records).attempt_chains("j")
        spans = chains[("j", "reduce", 0)]
        assert [s["attempt"] for s in spans] == [0, 1]
        assert spans[0]["status"] == "killed"

    def test_reducer_records_use_winning_attempt(self, faulted_records):
        loads = TraceAnalysis(faulted_records).reducer_records("j")
        assert loads == {0: 8, 1: 5}

    def test_dominant_job(self, faulted_records):
        assert TraceAnalysis(faulted_records).dominant_job() == "j"

    def test_histogram_renders_all_reducers(self, faulted_records):
        text = TraceAnalysis(faulted_records).reducer_histogram("j")
        assert "r0" in text and "r1" in text and "max/mean" in text


class TestTimelines:
    def test_straggler_timeline_marks(self, faulted_records):
        text = TraceAnalysis(faulted_records).straggler_timeline("j")
        assert "x" in text  # killed portion of task 0's chain
        assert "s" in text  # task 1's speculative winner
        assert "spec win" in text

    def test_critical_path_finds_latest_chain(self, faulted_records):
        (summary,) = TraceAnalysis(faulted_records).critical_path("j")
        assert summary["task"] == 0
        assert summary["attempts"] == 2

    def test_empty_phase_message(self, faulted_records):
        text = TraceAnalysis(faulted_records).straggler_timeline("j", "map")
        assert "no map attempts" in text


class TestValidationAndIO:
    def test_load_trace_round_trip(self, tmp_path, faulted_records):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in faulted_records) + "\n"
        )
        analysis = TraceAnalysis.from_file(path)
        assert analysis.total_attempts() == 4

    def test_load_trace_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "event", "kind": "spill", "at": 0, "fields": {}, '
            '"seq": 0}\nnot json\n'
        )
        with pytest.raises(ValueError, match=":2: not valid JSON"):
            load_trace(path)

    def test_load_trace_names_the_schema_violation_line(
        self, tmp_path, faulted_records
    ):
        import json

        faulted_records[2]["status"] = "broken"
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in faulted_records) + "\n"
        )
        with pytest.raises(TraceSchemaError, match=":3: .*status"):
            load_trace(path)

    def test_format_summary_mentions_recovery(self, faulted_records):
        text = TraceAnalysis(faulted_records).format_summary()
        assert "4 attempts" in text
        assert "2 killed" in text


class TestSummaryDict:
    """The stable machine-readable summary: append-only keys."""

    def test_has_every_schema_key(self, faulted_records):
        summary = TraceAnalysis(faulted_records).summary_dict()
        assert set(summary) == {
            "schema_version", "records", "runs", "recovery",
            "failure_domains", "jobs", "dominant_job", "reducer_loads",
            "critical_path", "alerts",
        }
        assert summary["schema_version"] == 1

    def test_numbers_match_the_accessors(self, faulted_records):
        analysis = TraceAnalysis(faulted_records)
        summary = analysis.summary_dict()
        assert summary["recovery"] == analysis.recovery_summary()
        assert summary["dominant_job"] == "j"
        assert summary["reducer_loads"] == {"0": 8, "1": 5}
        assert summary["jobs"][0]["attempts"] == 4

    def test_is_json_serializable(self, faulted_records):
        import json

        payload = json.dumps(TraceAnalysis(faulted_records).summary_dict())
        assert json.loads(payload)["schema_version"] == 1

    def test_empty_trace_summarizes(self):
        summary = TraceAnalysis([]).summary_dict()
        assert summary["runs"] == []
        assert summary["dominant_job"] is None
        assert summary["reducer_loads"] == {}
