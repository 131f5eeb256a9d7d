"""Flow lineage and watchdog alerts are deterministic derivations.

The spine suite (``tests/observability/test_trace_integration.py``)
asserts trace byte identity once; these checks stay as the per-engine
statement at the lineage level, over the same cached runs, plus the
fault-free acceptance check that the watchdog agrees with the doctor.
"""

from dataclasses import replace

import pytest

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.core.planner import replay_routing
from repro.datagen import gen_binomial
from repro.observability import (
    ExplainError,
    LineageIndex,
    MemorySink,
    TraceAnalysis,
    Tracer,
    Watchdog,
    explain_reducer,
)

from ..observability.spine import (
    ENGINES,
    cluster,
    relation,
    simulation,
    spine_run,
    untraced_run,
)


def assert_same_lineage(engine_name, faults):
    serial = spine_run(engine_name, faults).live
    parallel = spine_run(engine_name, faults, parallelism=2).live
    assert parallel.lineage.jobs == serial.lineage.jobs
    assert parallel.lineage.alerts == serial.lineage.alerts
    assert parallel.watchdog.comparisons == serial.watchdog.comparisons
    return serial.lineage


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_serial_parallel_identity_clean(engine_name):
    assert_same_lineage(engine_name, "clean")


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_serial_parallel_identity_under_task_faults(engine_name):
    assert_same_lineage(engine_name, "task-faults")


def test_serial_parallel_identity_under_node_faults():
    """A node loss re-executes the round; the aborted execution and the
    resume both appear in the index, identically for both backends."""
    lineage = assert_same_lineage("mrcube", "node-loss")
    executions = {
        execution: job for (name, execution), job in lineage.jobs.items()
        if name == "mrcube-materialize"
    }
    assert executions[0]["aborted"] and not executions[1]["aborted"]
    # Reducer 0 finished before the node died and was salvaged.
    assert executions[1]["completed_reducers"] == [0]
    assert explain_reducer(
        lineage, job="mrcube-materialize", reducer=0
    )["salvaged"]


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_recording_does_not_change_runs(engine_name):
    traced = spine_run(engine_name, "task-faults")
    plain = untraced_run(engine_name, "task-faults")
    assert simulation(traced.run) == simulation(plain)


def test_lineage_off_by_default():
    """Flow edges ride only at ``debug``: the default ``task`` level
    records none, and the explain walk says how to get them."""
    lineage = LineageIndex()
    run = SPCube(
        cluster(tracer=Tracer([lineage]))
    ).compute(relation())
    assert run.metrics.output_groups > 0
    assert lineage.jobs and not any(j["flows"] for j in lineage.jobs.values())
    with pytest.raises(ExplainError, match="--trace-level debug"):
        explain_reducer(lineage)


def test_every_engine_classifies_cuboids():
    """Every cube round's flows carry a per-cuboid breakdown; only the
    classifier-less sample rounds (key ``0``) record empty ones."""
    for engine_name in sorted(ENGINES):
        for (name, _), job in spine_run(engine_name).live.lineage.jobs.items():
            if name in ("sp-sketch", "mrcube-sample"):
                continue
            assert any(flow["cuboids"] for flow in job["flows"]), (
                engine_name, name,
            )


class TestWatchdogMatchesDoctor:
    """Acceptance: on a fault-free run the watchdog's predicted-vs-
    observed comparison — what the doctor's attribution reads — must
    match an independent oracle on each side: the sketch's routing
    replayed over the relation, and the analyzer's reducer loads."""

    @pytest.fixture(scope="class")
    def run(self):
        relation = gen_binomial(1500, 0.9, seed=11)
        sink, watchdog, lineage = MemorySink(), Watchdog(), LineageIndex()
        cluster = replace(
            paper_cluster(len(relation), num_machines=4),
            tracer=Tracer([sink, watchdog, lineage], level="debug"),
        )
        cube_run = SPCube(cluster).compute(relation)
        return relation, watchdog, lineage, cube_run, sink.records

    def test_deltas_are_zero_and_sides_match_attribution(self, run):
        relation, watchdog, _lineage, cube_run, records = run
        comparison = watchdog.comparisons["sp-cube"]
        predicted, _, _ = replay_routing(
            relation, cube_run.sketch, cube_run.sketch.num_partitions
        )
        assert comparison["predicted"] == predicted
        assert comparison["observed"] == TraceAnalysis(
            records
        ).reducer_records("sp-cube")
        assert all(d == 0 for d in comparison["deltas"].values())

    def test_explain_reducer_names_doctor_flagged_cuboids(self, run):
        """The hottest ranged reducer's explain walk must surface the
        cuboids the sketch's replayed routing says loaded it."""
        relation, _watchdog, lineage, cube_run, _records = run
        _, by_cuboid, _ = replay_routing(
            relation, cube_run.sketch, cube_run.sketch.num_partitions
        )
        result = explain_reducer(lineage, job="sp-cube")
        flagged = by_cuboid.get(result["reducer"], {})
        explained = {int(mask) for mask in result["by_cuboid"]}
        assert explained  # the walk names cuboids at all
        assert {m for m in flagged if flagged[m] > 0} <= explained
