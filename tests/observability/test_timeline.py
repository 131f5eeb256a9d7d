"""TimelineAnalysis over a Telemetry's sample timeline."""

from repro.observability import Telemetry, TimelineAnalysis, replay

from .trace_records import event


def sample_telemetry():
    telemetry = Telemetry()
    telemetry.sample("shuffle_bytes", 100, 0.0, labels={"job": "a"})
    telemetry.sample("shuffle_bytes", 300, 10.0, labels={"job": "b"})
    telemetry.sample("cube_groups", 4096, 10.0)
    return telemetry


def analysis():
    return TimelineAnalysis(sample_telemetry().samples)


class TestSeriesAccess:
    def test_series_names_sorted(self):
        assert analysis().series_names() == ["cube_groups", "shuffle_bytes"]

    def test_label_filter_is_exact(self):
        only_a = analysis().series("shuffle_bytes", labels={"job": "a"})
        assert [s["value"] for s in only_a] == [100]
        assert analysis().series("shuffle_bytes", labels={"job": "z"}) == []

    def test_points_are_time_value_pairs(self):
        assert analysis().points("shuffle_bytes") == [(0.0, 100), (10.0, 300)]


class TestRegistryRebuild:
    def test_exposition_matches_live_registry(self):
        """A registry rebuilt by replaying the records a live collector
        saw renders the same exposition."""
        records = [
            event("node_lost", "j", at=1.0, node=0, machines=[0]),
            event("checkpoint_write", "j", at=2.0, round=0, bytes=64),
        ]
        live = Telemetry()
        for record in records:
            live.write(record)
        rebuilt = replay(records, Telemetry())
        assert rebuilt.prometheus_text() == live.prometheus_text() != ""
        assert rebuilt.samples == live.samples


class TestSummaries:
    def test_series_summary_extrema(self):
        summary = analysis().series_summary("shuffle_bytes")
        assert summary["samples"] == 2
        assert summary["label_sets"] == 2
        assert summary["min"] == 100
        assert summary["max"] == 300
        assert summary["last"] == 300
        assert (summary["t0"], summary["t1"]) == (0.0, 10.0)
