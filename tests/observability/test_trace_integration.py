"""End-to-end tracing over the differential harness's cached runs.

A fault-injected gen-zipf run traced to a JSONL file must yield an
analyzer whose attempt counts, speculative wins and per-reducer pair
counts exactly match ``RunMetrics``, and a traced run's metrics must be
identical to an untraced run's.  The harness
(``tests/test_differential.py``) checks the ``debug``-level trace bytes
identical across task orders in every case; telemetry, the watchdog and
the explain index are pure functions of those records, so two more
properties make that sufficient for them: the live sinks equal an
offline replay of the JSONL, and every sink sees a job's alerts right
behind that job's span.
"""

import json
from dataclasses import asdict

import pytest

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.datagen import gen_binomial, gen_zipf
from repro.mapreduce import ClusterConfig
from repro.mapreduce.faults import FaultPlan
from repro.observability import (
    ALERT_KINDS,
    LineageIndex,
    MemorySink,
    Telemetry,
    TraceAnalysis,
    Tracer,
    Watchdog,
    explain_group,
    explain_reducer,
    record_problems,
    replay,
)

from ..test_differential import ENGINE_NAMES, Case, check_case
from ..test_differential import traced_run as harness_run

#: The fault modes these ids name -> the harness's fault plans.
FAULTS = {"clean": "none", "node-loss": "node-loss", "task-faults": "task-faults"}


def binomial_run(engine, faults):
    return harness_run("binomial", "count", engine, "serial", FAULTS[faults])


ROWS = 2000
WALL_FIELDS = ("map_phase_wall_seconds", "reduce_phase_wall_seconds")


def fault_plan():
    return FaultPlan(seed=7, crash_prob=0.08, straggle_prob=0.1)


def run_spcube(tracer=None):
    relation = gen_zipf(ROWS, seed=3)
    cluster = paper_cluster(ROWS, fault_plan=fault_plan())
    cluster.tracer = tracer
    return SPCube(cluster).compute(relation)


def comparable(metrics):
    """``asdict`` with the measured host-time diagnostics removed."""
    data = asdict(metrics)
    for job in data["jobs"]:
        for field in WALL_FIELDS:
            job.pop(field)
    return data


@pytest.fixture(scope="module")
def traced_run():
    sink = MemorySink()
    tracer = Tracer([sink], level="debug")
    run = run_spcube(tracer)
    return run, sink.records


class TestTracedRunIsIdentical:
    def test_metrics_bit_identical_to_untraced(self, traced_run):
        run, _records = traced_run
        untraced = run_spcube()
        assert comparable(untraced.metrics) == comparable(run.metrics)

    def test_cube_identical_to_untraced(self, traced_run):
        run, _records = traced_run
        assert run_spcube().cube == run.cube


class TestAnalyzerMatchesMetrics:
    def test_schema_valid(self, traced_run):
        _run, records = traced_run
        assert not [p for r in records for p in record_problems(r)]

    def test_fault_plan_fired(self, traced_run):
        run, _records = traced_run
        assert run.metrics.killed_tasks > 0
        assert run.metrics.speculative_wins > 0

    def test_recovery_counters_match_exactly(self, traced_run):
        run, records = traced_run
        analysis = TraceAnalysis(records)
        assert analysis.total_attempts() == run.metrics.attempts
        assert analysis.killed_attempts() == run.metrics.killed_tasks
        assert analysis.speculative_wins() == run.metrics.speculative_wins
        assert analysis.recovered() == run.metrics.recovered

    def test_per_job_counters_match(self, traced_run):
        run, records = traced_run
        analysis = TraceAnalysis(records)
        for job in run.metrics.jobs:
            assert analysis.total_attempts(job.name) == job.attempts
            assert analysis.killed_attempts(job.name) == job.killed_tasks

    def test_per_reducer_pair_counts_match(self, traced_run):
        run, records = traced_run
        analysis = TraceAnalysis(records)
        for job in run.metrics.jobs:
            expected = {t.machine: t.records_in for t in job.reduce_tasks}
            assert analysis.reducer_records(job.name) == expected

    def test_dominant_job_is_the_cube_round(self, traced_run):
        run, records = traced_run
        cube_round = max(
            run.metrics.jobs, key=lambda job: job.map_output_records
        )
        assert TraceAnalysis(records).dominant_job() == cube_round.name

    def test_run_span_carries_recovery_overhead(self, traced_run):
        run, records = traced_run
        (run_span,) = TraceAnalysis(records).runs
        counters = run_span["counters"]
        assert counters["attempts"] == run.metrics.attempts
        assert counters["recovery_overhead_seconds"] == pytest.approx(
            run.metrics.recovery_overhead()
        )

    def test_summary_formats(self, traced_run):
        _run, records = traced_run
        text = TraceAnalysis(records).format_summary()
        assert "run SP-Cube" in text
        assert "per-reducer records" in text


class TestBackendIdentity:
    def test_trace_files_byte_identical_serial_vs_parallel(self):
        check_case(Case("zipf", "count", "spcube", "parallel", "random"))


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestSpine:
    def test_trace_bytes_identical_serial_vs_parallel(self, engine, faults):
        check_case(Case("binomial", "count", engine, "parallel", FAULTS[faults]))
        serial = binomial_run(engine, faults)
        assert any(r["kind"] == "flow" for r in serial.records)
        # The faults fired, were survived, and changed nothing but time.
        metrics = serial.run.metrics
        assert not metrics.failed
        assert (metrics.killed_tasks > 0) == (faults != "clean")
        assert metrics.resumed_rounds == (faults == "node-loss")

    def test_live_sinks_equal_offline_replay(self, engine, faults):
        traced = binomial_run(engine, faults)
        live = traced.live
        records = [json.loads(line) for line in traced.text.splitlines()]
        telemetry, watchdog, lineage = (
            replay(records, sink())
            for sink in (Telemetry, Watchdog, LineageIndex)
        )
        assert telemetry.prometheus_text() == live.telemetry.prometheus_text()
        recorded_alerts = [r for r in records if r["kind"] in ALERT_KINDS]
        assert [
            dict(alert, seq=recorded["seq"])
            for alert, recorded in zip(watchdog.alerts, recorded_alerts)
        ] == recorded_alerts == live.watchdog.alerts
        assert watchdog.comparisons == live.watchdog.comparisons
        explained = explain_reducer(lineage)
        assert explained == explain_reducer(live.lineage)
        cuboid = int(next(iter(explained["by_cuboid"])))
        assert explain_group(lineage, cuboid) == explain_group(
            live.lineage, cuboid
        )

    def test_alerts_follow_their_job_span_in_every_sink(self, engine, faults):
        live = binomial_run(engine, faults).live
        # One sink sits before the watchdog in the fan-out, one after.
        assert live.before.records == live.after.records
        alerts_behind_their_job_spans(live.before.records)


def alerts_behind_their_job_spans(records):
    """The kinds of the alerts in ``records``, each asserted to sit
    directly behind its job's span (or that job's previous alert)."""
    kinds, previous = [], None
    for record in records:
        if record["kind"] in ALERT_KINDS:
            assert previous["kind"] == "job" or (
                previous["kind"] in ALERT_KINDS
            ), "alert not directly behind its job's span"
            assert previous["job"] == record["job"]
            assert previous["seq"] + 1 == record["seq"]
            kinds.append(record["kind"])
        previous = record
    return kinds


def test_the_matrix_does_alert():
    """The ordering property above is not vacuous: the harness's
    task-faults run raises a straggler alert, and the observability smoke's hot input a skew
    alert, each right behind its job span."""
    straggling = binomial_run("spcube", "task-faults").live.before.records
    assert "straggler_alert" in alerts_behind_their_job_spans(straggling)
    sink = MemorySink()
    tracer = Tracer([Watchdog(), sink], level="debug")
    SPCube(
        ClusterConfig(num_machines=4, memory_records=32, tracer=tracer)
    ).compute(gen_binomial(1500, 0.9, seed=11))
    assert "skew_alert" in alerts_behind_their_job_spans(sink.records)


class TestLevelGating:
    def test_job_level_omits_attempt_spans(self):
        sink = MemorySink()
        run_spcube(Tracer([sink], level="job"))
        kinds = {r["kind"] for r in sink.records}
        assert "attempt" not in kinds
        assert {"job", "phase", "run"} <= kinds

    def test_task_level_omits_debug_events(self):
        sink = MemorySink()
        run_spcube(Tracer([sink], level="task"))
        kinds = {r["kind"] for r in sink.records}
        assert "attempt" in kinds
        assert "flow" not in kinds and "spill" not in kinds

    def test_debug_level_adds_route_events(self):
        """``flow`` is what ``route`` became: the same edge, with bytes
        and per-cuboid counts, and the sketch's predicted loads with it."""
        sink = MemorySink()
        run_spcube(Tracer([sink], level="debug"))
        kinds = {r["kind"] for r in sink.records}
        assert "flow" in kinds and "route" not in kinds
        (sketch,) = (r for r in sink.records if r["kind"] == "sketch")
        assert sketch["fields"]["promise"]["predicted"]
