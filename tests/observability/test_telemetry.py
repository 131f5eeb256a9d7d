"""Telemetry: registry, instruments, the trace derivation, exposition."""

import pytest

from repro.observability import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    replay,
)

from .trace_records import attempt, event, job_span


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("repro_things_total", "things")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        counter = Counter("repro_things_total", "things")
        counter.inc(2, labels={"job": "a"})
        counter.inc(3, labels={"job": "b"})
        assert counter.value(labels={"job": "a"}) == 2
        assert counter.value(labels={"job": "b"}) == 3
        assert counter.value() == 0  # the unlabelled series is its own

    def test_negative_increment_rejected(self):
        counter = Counter("repro_things_total", "things")
        with pytest.raises(ValueError, match="decrease"):
            counter.inc(-1)

    def test_exposition_lines(self):
        counter = Counter("repro_things_total", "counted things")
        counter.inc(2, labels={"job": "a"})
        assert counter.exposition_lines() == [
            'repro_things_total{job="a"} 2'
        ]

    def test_registry_adds_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "counted things").inc(2)
        text = registry.prometheus_text()
        assert "# HELP repro_things_total counted things" in text
        assert "# TYPE repro_things_total counter" in text


class TestGauge:
    def test_set_then_inc(self):
        gauge = Gauge("repro_depth", "depth")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value() == 7

    def test_type_line_comes_from_registry(self):
        registry = MetricsRegistry()
        registry.gauge("repro_depth", "depth").set(1)
        assert "# TYPE repro_depth gauge" in registry.prometheus_text()


class TestHistogram:
    def test_observe_fills_buckets(self):
        hist = Histogram("repro_h", "h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == 55.5
        # One count per bucket, the overflow last.
        assert hist.series() == [
            {"labels": {}, "counts": [1, 1, 1], "sum": 55.5, "count": 3}
        ]

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("repro_h", "h", buckets=(10.0, 1.0))

    def test_exposition_has_cumulative_buckets_and_count(self):
        hist = Histogram("repro_h", "h", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(3.0)
        lines = hist.exposition_lines()
        assert 'repro_h_bucket{le="1"} 1' in lines
        assert 'repro_h_bucket{le="10"} 2' in lines
        assert 'repro_h_bucket{le="+Inf"} 2' in lines
        assert "repro_h_sum 3.5" in lines
        assert "repro_h_count 2" in lines

    def test_default_buckets_are_fixed_and_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_register_once_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x")
        again = registry.counter("repro_x_total")
        assert first is again

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError, match="registered"):
            registry.gauge("repro_x_total", "x")


def job_stream(name="j", t0=0.0):
    """One traced round: map phase, shuffle, two reduce attempts (task 1
    retried), reduce phase, job span."""
    phase = {"type": "span", "kind": "phase", "job": name, "status": "ok"}
    return [
        {**phase, "name": "map", "phase": "map", "t0": t0, "t1": t0 + 2.0,
         "counters": {"seconds": 2.0}},
        event("shuffle", name, at=t0 + 2.0, seconds=0.5),
        attempt(name, "reduce", 0, records_in=30),
        attempt(name, "reduce", 1, records_in=99, status="killed"),
        attempt(name, "reduce", 1, records_in=70, attempt=1),
        {**phase, "name": "reduce", "phase": "reduce", "t0": t0 + 2.5,
         "t1": t0 + 4.0, "counters": {"seconds": 1.5}},
        job_span(name, t0, t0 + 4.0, map_output_bytes=1000,
                 map_output_records=100, attempts=5, killed_tasks=1),
    ]


FAILURE_DOMAIN_EVENTS = [
    event("node_lost", "j", at=1.0, node=2, machines=[2]),
    event("round_resume", "j", at=3.0, round=0,
          salvaged_partitions=[0], replaced_nodes=[2]),
    event("checkpoint_write", "j", at=9.0, round=0, num_parts=2, bytes=640),
    event("skew_alert", "j", at=9.0, reducer=1),
]


class TestDerivation:
    def test_job_span_closes_the_round_once(self):
        telemetry = replay(job_stream(), Telemetry())
        registry, labels = telemetry.registry, {"job": "j"}
        assert registry.get("repro_jobs_total").value(labels) == 1
        assert registry.get("repro_shuffle_bytes_total").value(labels) == 1000
        assert registry.get("repro_task_attempts_total").value(labels) == 5
        assert registry.get("repro_tasks_killed_total").value(labels) == 1
        phases = registry.get("repro_phase_seconds")
        assert [phases.sum({"phase": p}) for p in ("map", "shuffle", "reduce")] \
            == [2.0, 0.5, 1.5]
        # Winning attempts only: the killed 99-record attempt is not a load.
        loads = registry.get("repro_reduce_task_records")
        assert (loads.count(labels), loads.sum(labels)) == (2, 100.0)
        assert registry.get("repro_shuffle_records_total").value(labels) \
            == 100

    def test_per_job_state_does_not_leak_into_the_next_job(self):
        aborted_in_map = [job_stream("a")[0], job_span("a", 0.0, 2.0, "aborted")]
        telemetry = replay(aborted_in_map + job_stream("b", 2.0), Telemetry())
        phases = telemetry.registry.get("repro_phase_seconds")
        # Job a never shuffled or reduced: it observes zeros, not b's.
        assert phases.count({"phase": "reduce"}) == 2
        assert phases.sum({"phase": "reduce"}) == 1.5

    def test_failure_domain_events(self):
        telemetry = replay(FAILURE_DOMAIN_EVENTS, Telemetry())
        registry = telemetry.registry
        assert registry.get("repro_nodes_lost_total").value() == 1
        assert registry.get("repro_round_resumes_total").value() == 1
        assert registry.get("repro_node_up").value({"node": 2}) == 1
        assert registry.get("repro_checkpoint_bytes_total").value() == 640
        assert registry.get("repro_watchdog_alerts_total").value(
            {"kind": "skew_alert"}) == 1
        # Lost at t=1, re-provisioned by the resume at t=3.
        lost_only = replay(FAILURE_DOMAIN_EVENTS[:1], Telemetry()).registry
        assert lost_only.get("repro_node_up").value({"node": 2}) == 0


class TestEmitRunTelemetry:
    def test_records_run_level_series(self):
        """The ``run`` span (plus the ``sketch`` event before it) carries
        what only exists at run end."""
        run = {"type": "span", "kind": "run", "name": "X", "t0": 0.0,
               "t1": 3.0, "status": "ok",
               "counters": {"output_groups": 42, "dfs_writes": 3,
                            "dfs_records_written": 9, "dfs_files": 2}}
        telemetry = replay(
            [event("sketch", "sp-sketch", at=1.0, bytes=512), run],
            Telemetry(),
        )
        registry, labels = telemetry.registry, {"run": "X"}
        assert registry.names() == [
            "repro_cube_groups", "repro_dfs_files", "repro_runs_total",
            "repro_sketch_bytes",
        ]
        assert registry.get("repro_runs_total").value(labels) == 1
        assert registry.get("repro_cube_groups").value(labels) == 42
        assert registry.get("repro_sketch_bytes").value(labels) == 512
        assert registry.get("repro_dfs_files").value(labels) == 2


class TestRegistryRebuild:
    def test_exposition_matches_live_registry(self):
        """A registry rebuilt by replaying the records a live collector
        saw renders the same exposition."""
        live = Telemetry()
        for record in FAILURE_DOMAIN_EVENTS:
            live.write(record)
        rebuilt = replay(FAILURE_DOMAIN_EVENTS, Telemetry())
        assert rebuilt.prometheus_text() == live.prometheus_text() != ""


class TestExposition:
    def test_whole_text_of_a_replayed_stream(self):
        """The full exposition, pinned: HELP/TYPE per family in name order,
        cumulative buckets with ``+Inf`` equal to ``_count``, integral
        values without ``.0``, and an escaped label value."""
        telemetry = replay(job_stream() + FAILURE_DOMAIN_EVENTS, Telemetry())
        telemetry.registry.gauge("repro_odd_label", "Label escaping").set(
            1.5, labels={"path": 'a"b\\c\nd'}
        )
        assert telemetry.prometheus_text() == "\n".join([
            '# HELP repro_checkpoint_bytes_total Reduce-output bytes persisted as checkpoints',
            '# TYPE repro_checkpoint_bytes_total counter',
            'repro_checkpoint_bytes_total 640',
            '# HELP repro_checkpoint_writes_total Rounds checkpointed to the DFS',
            '# TYPE repro_checkpoint_writes_total counter',
            'repro_checkpoint_writes_total 1',
            '# HELP repro_jobs_total MapReduce rounds executed',
            '# TYPE repro_jobs_total counter',
            'repro_jobs_total{job="j"} 1',
            '# HELP repro_node_up Node liveness (1 = serving, 0 = dead)',
            '# TYPE repro_node_up gauge',
            'repro_node_up{node="2"} 1',
            '# HELP repro_nodes_lost_total Failure domains lost to node kills',
            '# TYPE repro_nodes_lost_total counter',
            'repro_nodes_lost_total 1',
            '# HELP repro_odd_label Label escaping',
            '# TYPE repro_odd_label gauge',
            'repro_odd_label{path="a\\"b\\\\c\\nd"} 1.5',
            '# HELP repro_phase_seconds Simulated seconds per phase',
            '# TYPE repro_phase_seconds histogram',
            'repro_phase_seconds_bucket{phase="map",le="0.1"} 0',
            'repro_phase_seconds_bucket{phase="map",le="0.25"} 0',
            'repro_phase_seconds_bucket{phase="map",le="0.5"} 0',
            'repro_phase_seconds_bucket{phase="map",le="1"} 0',
            'repro_phase_seconds_bucket{phase="map",le="2.5"} 1',
            'repro_phase_seconds_bucket{phase="map",le="5"} 1',
            'repro_phase_seconds_bucket{phase="map",le="10"} 1',
            'repro_phase_seconds_bucket{phase="map",le="25"} 1',
            'repro_phase_seconds_bucket{phase="map",le="50"} 1',
            'repro_phase_seconds_bucket{phase="map",le="100"} 1',
            'repro_phase_seconds_bucket{phase="map",le="250"} 1',
            'repro_phase_seconds_bucket{phase="map",le="1000"} 1',
            'repro_phase_seconds_bucket{phase="map",le="+Inf"} 1',
            'repro_phase_seconds_sum{phase="map"} 2',
            'repro_phase_seconds_count{phase="map"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="0.1"} 0',
            'repro_phase_seconds_bucket{phase="reduce",le="0.25"} 0',
            'repro_phase_seconds_bucket{phase="reduce",le="0.5"} 0',
            'repro_phase_seconds_bucket{phase="reduce",le="1"} 0',
            'repro_phase_seconds_bucket{phase="reduce",le="2.5"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="5"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="10"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="25"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="50"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="100"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="250"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="1000"} 1',
            'repro_phase_seconds_bucket{phase="reduce",le="+Inf"} 1',
            'repro_phase_seconds_sum{phase="reduce"} 1.5',
            'repro_phase_seconds_count{phase="reduce"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="0.1"} 0',
            'repro_phase_seconds_bucket{phase="shuffle",le="0.25"} 0',
            'repro_phase_seconds_bucket{phase="shuffle",le="0.5"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="1"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="2.5"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="5"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="10"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="25"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="50"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="100"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="250"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="1000"} 1',
            'repro_phase_seconds_bucket{phase="shuffle",le="+Inf"} 1',
            'repro_phase_seconds_sum{phase="shuffle"} 0.5',
            'repro_phase_seconds_count{phase="shuffle"} 1',
            '# HELP repro_reduce_task_records Input records per reduce task',
            '# TYPE repro_reduce_task_records histogram',
            'repro_reduce_task_records_bucket{job="j",le="1"} 0',
            'repro_reduce_task_records_bucket{job="j",le="4"} 0',
            'repro_reduce_task_records_bucket{job="j",le="16"} 0',
            'repro_reduce_task_records_bucket{job="j",le="64"} 1',
            'repro_reduce_task_records_bucket{job="j",le="256"} 2',
            'repro_reduce_task_records_bucket{job="j",le="1024"} 2',
            'repro_reduce_task_records_bucket{job="j",le="4096"} 2',
            'repro_reduce_task_records_bucket{job="j",le="16384"} 2',
            'repro_reduce_task_records_bucket{job="j",le="65536"} 2',
            'repro_reduce_task_records_bucket{job="j",le="262144"} 2',
            'repro_reduce_task_records_bucket{job="j",le="1048576"} 2',
            'repro_reduce_task_records_bucket{job="j",le="4194304"} 2',
            'repro_reduce_task_records_bucket{job="j",le="+Inf"} 2',
            'repro_reduce_task_records_sum{job="j"} 100',
            'repro_reduce_task_records_count{job="j"} 2',
            '# HELP repro_round_resumes_total Rounds resumed from a checkpoint after node loss',
            '# TYPE repro_round_resumes_total counter',
            'repro_round_resumes_total 1',
            '# HELP repro_shuffle_bytes_total Bytes shuffled from map to reduce',
            '# TYPE repro_shuffle_bytes_total counter',
            'repro_shuffle_bytes_total{job="j"} 1000',
            '# HELP repro_shuffle_records_total Pairs shuffled from map to reduce',
            '# TYPE repro_shuffle_records_total counter',
            'repro_shuffle_records_total{job="j"} 100',
            '# HELP repro_task_attempts_total Task attempts including retries',
            '# TYPE repro_task_attempts_total counter',
            'repro_task_attempts_total{job="j"} 5',
            '# HELP repro_tasks_killed_total Attempts killed by injected faults',
            '# TYPE repro_tasks_killed_total counter',
            'repro_tasks_killed_total{job="j"} 1',
            '# HELP repro_watchdog_alerts_total Watchdog alerts emitted, by kind',
            '# TYPE repro_watchdog_alerts_total counter',
            'repro_watchdog_alerts_total{kind="skew_alert"} 1',
        ]) + "\n"
