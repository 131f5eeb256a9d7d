"""Node loss + checkpoint resume, end to end — the acceptance scenario.

A seeded node kill during round 2 of a three-round MR-Cube run must:
complete via checkpoint resume with the bit-identical cube of the
fault-free run, re-execute only round-2 work (rounds 1 and 3 run once),
skip the salvaged reduce partitions on the rerun, and leave merged
metrics that satisfy every invariant.  That every task order agrees
byte-for-byte on cubes and traces under node faults is the differential
harness's (``tests/test_differential.py``); ``TestBackendIdentity`` names
its cases.  A round that exhausts its retries instead stops the run in
that round (``test_an_exhausted_round_closes_the_run``).
"""

from dataclasses import replace

import pytest

from repro.analysis import paper_cluster
from repro.baselines import MRCube
from repro.core import SPCube
from repro.datagen import gen_binomial, gen_zipf
from repro.mapreduce.faults import FaultPlan, FaultSpec, NodeFaultSpec
from repro.observability import MemorySink, Tracer, record_problems

from ..test_differential import Case, check_case

ROWS = 3000
#: Job-relative instant inside the materialize round's reduce phase (the
#: round spans ~67s; map+shuffle+startup end around t=35).
KILL_AT = 45.0


def relation():
    return gen_binomial(ROWS, 0.5, seed=3)


def cluster(**overrides):
    base = paper_cluster(ROWS, num_machines=6, num_nodes=3)
    return replace(base, **overrides) if overrides else base


def kill_plan():
    return FaultPlan(seed=11, node_specs=[
        NodeFaultSpec(node=1, at_seconds=KILL_AT, job="mrcube-materialize"),
    ])


@pytest.fixture(scope="module")
def clean_run():
    return MRCube(cluster()).compute(relation())


@pytest.fixture(scope="module")
def resumed_run():
    sink = MemorySink()
    tracer = Tracer([sink], level="task")
    run = MRCube(
        cluster(fault_plan=kill_plan(), tracer=tracer)
    ).compute(relation())
    tracer.close()
    return run, sink.records


class TestAcceptance:
    def test_three_rounds_fault_free(self, clean_run):
        assert [j.name for j in clean_run.metrics.jobs] == [
            "mrcube-sample", "mrcube-materialize", "mrcube-postagg",
        ]

    def test_run_completes_via_resume(self, resumed_run):
        run, _records = resumed_run
        metrics = run.metrics
        assert not metrics.aborted
        assert metrics.nodes_lost == 1
        assert metrics.resumed_rounds == 1

    def test_cube_identical_to_fault_free(self, resumed_run, clean_run):
        run, _records = resumed_run
        assert run.cube == clean_run.cube

    def test_only_round_two_reruns(self, resumed_run):
        run, records = resumed_run
        names = [j.name for j in run.metrics.jobs]
        assert names == [
            "mrcube-sample",
            "mrcube-materialize",  # killed execution, superseded
            "mrcube-materialize",  # resumed rerun
            "mrcube-postagg",
        ]
        job_spans = [r for r in records
                     if r.get("type") == "span" and r.get("kind") == "job"]
        counts = {}
        for span in job_spans:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        assert counts == {
            "mrcube-sample": 1, "mrcube-materialize": 2, "mrcube-postagg": 1,
        }

    def test_superseded_execution_is_flagged(self, resumed_run):
        run, _records = resumed_run
        killed = run.metrics.jobs[1]
        assert killed.superseded and killed.aborted
        assert killed.dead_nodes == [1]
        # Its whole duration is recovery cost.
        assert killed.recovery_overhead_seconds == pytest.approx(
            killed.total_seconds
        )

    def test_trace_has_the_recovery_events(self, resumed_run):
        _run, records = resumed_run
        assert not [p for r in records for p in record_problems(r)]
        events = {r["kind"]: r for r in records if r.get("type") == "event"}
        assert "node_lost" in events
        assert events["node_lost"]["fields"]["node"] == 1
        assert "round_resume" in events
        assert "checkpoint_write" in events

    def test_rerun_skips_salvaged_partitions(self, resumed_run):
        _run, records = resumed_run
        (resume,) = [r for r in records if r.get("kind") == "round_resume"]
        salvaged = set(resume["fields"]["salvaged_partitions"])
        assert salvaged  # at least one partition completed pre-kill
        rerun_reducers = {
            r["task"]
            for r in records
            if r.get("kind") == "attempt"
            and r.get("job") == "mrcube-materialize"
            and r.get("phase") == "reduce"
            and r["seq"] > resume["seq"]
        }
        assert rerun_reducers
        assert not rerun_reducers & salvaged

    def test_merged_metrics_hold_invariants(self, resumed_run):
        run, _records = resumed_run
        run.metrics.check_invariants()

    def test_recovery_overhead_includes_the_lost_round(self, resumed_run):
        run, _records = resumed_run
        killed = run.metrics.jobs[1]
        assert run.metrics.recovery_overhead() >= killed.total_seconds


class TestCheckpointDisabled:
    def test_node_kill_aborts_without_checkpointing(self):
        run = MRCube(
            cluster(fault_plan=kill_plan(), checkpoint_enabled=False)
        ).compute(relation())
        assert run.metrics.aborted
        assert run.metrics.resumed_rounds == 0
        assert run.metrics.nodes_lost == 1


class TestRepeatedKills:
    def test_two_rounds_each_lose_a_node_and_both_resume(self, clean_run):
        plan = FaultPlan(node_specs=[
            NodeFaultSpec(node=1, at_seconds=KILL_AT,
                          job="mrcube-materialize"),
            NodeFaultSpec(node=2, at_seconds=1.0, job="mrcube-postagg"),
        ])
        run = MRCube(cluster(fault_plan=plan)).compute(relation())
        assert not run.metrics.aborted
        assert run.metrics.resumed_rounds == 2
        assert run.metrics.nodes_lost == 2
        assert run.cube == clean_run.cube

    def test_every_node_dying_at_once_resumes_on_fresh_nodes(
        self, clean_run
    ):
        # Certain node death kills all three nodes at the first round's
        # start; the resume replaces the whole cluster and the rest of
        # the run (no eligible nodes left) completes untouched.
        plan = FaultPlan(node_crash_prob=1.0)
        run = MRCube(cluster(fault_plan=plan)).compute(relation())
        assert not run.metrics.aborted
        assert run.metrics.resumed_rounds == 1
        assert run.metrics.nodes_lost == 3
        assert run.cube == clean_run.cube


class TestRoundAttemptBackstop:
    def toy_job(self):
        from repro.mapreduce.engine import MapReduceJob, Mapper, Reducer

        class Spread(Mapper):
            def map(self, record):
                yield record % 4, record

        class Add(Reducer):
            def reduce(self, key, values):
                yield key, sum(values)

        return MapReduceJob("toy", Spread, Add)

    def test_single_attempt_runner_lets_the_abort_stand(self):
        from repro.mapreduce.checkpoint import RoundRunner
        from repro.mapreduce.metrics import RunMetrics

        plan = FaultPlan(node_specs=[NodeFaultSpec(node=0, job="toy")])
        metrics = RunMetrics(algorithm="toy")
        runner = RoundRunner(
            cluster(fault_plan=plan), metrics, max_round_attempts=1
        )
        result = runner.run(self.toy_job(), [[1, 2], [3, 4]], 16)
        assert result.metrics.aborted
        assert result.metrics.dead_nodes == [0]
        assert not result.metrics.superseded
        assert metrics.resumed_rounds == 0

    def test_two_attempt_runner_resumes_the_same_round(self):
        from repro.mapreduce.checkpoint import RoundRunner
        from repro.mapreduce.metrics import RunMetrics

        plan = FaultPlan(node_specs=[NodeFaultSpec(node=0, job="toy")])
        metrics = RunMetrics(algorithm="toy")
        sink = MemorySink()
        runner = RoundRunner(
            cluster(fault_plan=plan, tracer=Tracer([sink])), metrics,
            max_round_attempts=2,
        )
        result = runner.run(self.toy_job(), [[1, 2], [3, 4]], 16)
        assert not result.metrics.aborted
        assert metrics.resumed_rounds == 1
        assert sorted(result.output) == [(0, 4), (1, 1), (2, 2), (3, 3)]
        # The kill lands in the map phase, so the resume salvages no
        # partition: the rerun reduces every one, and the round commits
        # once, after it.
        kinds = [r["kind"] for r in sink.records if r["type"] == "event"]
        assert kinds.count("round_resume") == kinds.count("checkpoint_write") == 1
        (resume,) = [r for r in sink.records if r.get("kind") == "round_resume"]
        assert resume["fields"] == {
            "round": 0, "salvaged_partitions": [], "replaced_nodes": [0],
        }
        rerun = sorted(task.machine for task in result.metrics.reduce_tasks)
        assert rerun == list(range(len(result.reducer_outputs)))


class TestRunRelativeKills:
    def test_time_based_kill_lands_in_the_containing_round(self, clean_run):
        # ~20s into the run falls inside the materialize round (the
        # sample round takes ~15s); the kill is spent by the rerun.
        plan = FaultPlan(node_specs=[NodeFaultSpec(node=0, at_seconds=20.0)])
        run = MRCube(cluster(fault_plan=plan)).compute(relation())
        assert not run.metrics.aborted
        assert run.metrics.nodes_lost == 1
        assert run.cube == clean_run.cube


class TestSPCubeResume:
    def test_sketch_survives_node_loss_and_the_run_resumes(self):
        rel = gen_zipf(2000, seed=3)
        base = paper_cluster(2000, num_machines=6, num_nodes=3)
        clean = SPCube(base).compute(rel)
        plan = FaultPlan(seed=5, node_specs=[
            NodeFaultSpec(node=2, at_seconds=30.0, job="sp-cube"),
        ])
        faulted = SPCube(replace(base, fault_plan=plan)).compute(rel)
        assert not faulted.metrics.aborted
        assert faulted.metrics.resumed_rounds == 1
        # Round 2's rerun reuses the driver's sketch: node death must
        # have cost time, not data.
        assert faulted.cube == clean.cube
        faulted.metrics.check_invariants()


class TestBackendIdentity:
    def test_serial_and_parallel_agree_under_node_faults(self):
        for faults in ("node-loss", "random"):
            check_case(Case("binomial", "count", "mrcube", "parallel", faults))


def traced_run(engine, plan=None):
    """``engine``'s run on :func:`relation` and its one ``run`` span."""
    sink = MemorySink()
    tracer = Tracer([sink], level="job")
    run = engine(cluster(fault_plan=plan, tracer=tracer)).compute(relation())
    (span,) = [r for r in sink.records if r["kind"] == "run"]
    return run, span


@pytest.mark.parametrize("job", [
    "mrcube-sample", "mrcube-materialize", "mrcube-postagg",
    "sp-sketch", "sp-cube",
])
def test_an_exhausted_round_closes_the_run(job):
    """Whichever round exhausts its retries, the run stops there with an
    empty cube and one ``aborted`` run span of the usual shape."""
    engine = SPCube if job.startswith("sp-") else MRCube
    plan = FaultPlan([
        FaultSpec("crash", job=job, phase="map", task=0, attempt=None),
    ])
    run, span = traced_run(engine, plan)
    assert run.metrics.aborted
    assert run.cube.num_groups == 0
    assert run.metrics.jobs[-1].name == job
    assert span["status"] == "aborted"
    assert span["counters"]["output_groups"] == 0
    _clean, clean_span = traced_run(engine)
    assert sorted(span["counters"]) == sorted(clean_span["counters"])
