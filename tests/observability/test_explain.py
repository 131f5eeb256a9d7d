"""Explain queries: walking a trace's flow edges from symptom to cause."""

import pytest

from repro.observability import (
    ExplainError,
    LineageIndex,
    explain_group,
    explain_reducer,
    format_explain_markdown,
    parse_cuboid,
)

from .trace_records import event, flow, job_span


def artifact():
    """Two executions of 'cube' (a resume) plus a small side job."""
    alert = {"bound": 15.0, "tolerance": 2.0, "execution": 1, "reducer": 1}
    return [
        flow("side", 0, 0, 5, {0: 5}),
        job_span("side", num_reducers=1, map_tasks=2),
        # Execution 0 of the cube round was aborted mid-way; the resume
        # (execution 1) salvaged reducer 2 from a checkpoint.
        flow("cube", 0, 1, 8, {3: 8}),
        job_span("cube", status="aborted", num_reducers=3, map_tasks=2),
        event("round_resume", "cube", at=4.0, round=1,
              salvaged_partitions=[2], replaced_nodes=[0]),
        flow("cube", 0, 1, 30, {3: 20, 1: 10}),
        flow("cube", 1, 1, 10, {3: 10}),
        flow("cube", 1, 0, 5, {1: 5}),
        # Reducer 2 was salvaged from a checkpoint: the re-run maps still
        # shuffled to it, but its reduce task ran in execution 0.
        flow("cube", 0, 2, 4, {3: 4}),
        job_span("cube", 4.0, 8.0, num_reducers=3, map_tasks=2),
        event("skew_alert", "cube", at=8.0, observed=40, ratio=2.67, **alert),
        event("misannotation_alert", "cube", at=8.0, cuboid=3, observed=30,
              ratio=2.0, **alert),
        {"type": "span", "kind": "run", "name": "r", "t0": 0.0, "t1": 8.0,
         "status": "ok", "counters": {}},
    ]


class TestIndex:
    def test_requires_meta_head(self):
        """What an index requires is flow events, not a header record: a
        trace below debug level says how to get them."""
        with pytest.raises(ExplainError, match="--trace-level debug"):
            explain_reducer([job_span("x", num_reducers=1)])
        with pytest.raises(ExplainError):
            explain_reducer(LineageIndex())

    def test_dominant_job_by_flow_records(self):
        index = LineageIndex(artifact())
        assert index.dominant_job() == "cube"
        assert index.job_names() == ["side", "cube"]

    def test_latest_execution(self):
        index = LineageIndex(artifact())
        assert index.latest_execution("cube") == ("cube", 1)
        with pytest.raises(ExplainError, match="recorded jobs"):
            index.latest_execution("nope")

    def test_alerts_filter_by_reducer_and_cuboid(self):
        index = LineageIndex(artifact())
        assert len(index.alerts_for("cube")) == 2
        assert len(index.alerts_for("cube", reducer=1)) == 2
        assert index.alerts_for("cube", cuboid=7) == [
            index.alerts[0]  # skew alert carries no cuboid field
        ]
        assert index.alerts_for("side") == []


class TestExplainReducer:
    def test_defaults_to_dominant_job_hottest_reducer(self):
        result = explain_reducer(artifact())
        assert result["job"] == "cube"
        assert result["execution"] == 1  # latest, not the aborted round
        assert result["reducer"] == 1
        assert result["records"] == 40
        assert result["job_records"] == 49
        assert result["share"] == pytest.approx(40 / 49)
        # Descending by records: cuboid 3 (30) before cuboid 1 (10).
        assert list(result["by_cuboid"].items()) == [("3", 30), ("1", 10)]
        # Map task i reads input split i.
        assert [
            (t["map_task"], t["input_split"]) for t in result["map_tasks"]
        ] == [(0, 0), (1, 1)]
        assert len(result["alerts"]) == 2
        assert result["salvaged"] is False

    def test_salvaged_partition_is_flagged(self):
        result = explain_reducer(artifact(), job="cube", reducer=2)
        assert result["salvaged"] is True
        assert result["records"] == 4

    def test_unknown_reducer_lists_seen(self):
        with pytest.raises(ExplainError,
                           match=r"reducers seen: \[0, 1, 2\]"):
            explain_reducer(artifact(), job="cube", reducer=9)

    def test_accepts_a_prebuilt_index(self):
        index = LineageIndex(artifact())
        assert explain_reducer(index)["reducer"] == 1


class TestExplainGroup:
    def test_walks_cuboid_across_reducers(self):
        result = explain_group(artifact(), 1)
        assert result["job"] == "cube"
        assert result["records"] == 15
        assert result["by_reducer"] == {"0": 5, "1": 10}
        assert result["hottest_reducer"] == 1
        assert result["concentration"] == pytest.approx(10 / 15)
        assert [t["map_task"] for t in result["map_tasks"]] == [0, 1]
        # The cuboid-3 misannotation is excluded; the skew alert names
        # no cuboid, so it joins every group query on its job.
        assert [a["kind"] for a in result["alerts"]] == ["skew_alert"]

    def test_alerts_join_on_cuboid(self):
        result = explain_group(artifact(), 3)
        kinds = {a["kind"] for a in result["alerts"]}
        assert kinds == {"skew_alert", "misannotation_alert"}

    def test_missing_cuboid_lists_seen(self):
        with pytest.raises(ExplainError, match="cuboids seen"):
            explain_group(artifact(), 0x7F)


class TestParseCuboid:
    def test_accepts_all_bases(self):
        assert parse_cuboid("5") == 5
        assert parse_cuboid("0x1b") == 27
        assert parse_cuboid("0b101") == 5

    def test_rejects_garbage(self):
        with pytest.raises(ExplainError, match="lattice mask"):
            parse_cuboid("ABC")


class TestMarkdown:
    def test_reducer_report_renders_tables_and_alerts(self):
        text = format_explain_markdown(explain_reducer(artifact()))
        assert "## Reducer 1 of `cube`" in text
        assert "| cuboid | records |" in text
        assert "| 0x3 | 30 |" in text
        assert "| map task | input split | records | bytes |" in text
        assert "### Watchdog alerts" in text
        assert "`skew_alert` at t=8.0" in text

    def test_salvaged_note_renders(self):
        text = format_explain_markdown(
            explain_reducer(artifact(), job="cube", reducer=2)
        )
        assert "salvaged from a checkpoint" in text

    def test_group_report_renders(self):
        text = format_explain_markdown(explain_group(artifact(), 3))
        assert "## Cuboid 0x3 in `cube`" in text
        assert "| reducer | records |" in text
        assert "hottest reducer 1" in text
