"""End-to-end fault tolerance: injected faults never change the cube.

The headline invariant of the fault layer: a run under any fault plan
that stays within the retry budget produces a cube *identical* to the
fault-free run — retries, speculation and replica failover change only
the simulated clock, never the data.  A plan that exhausts the budget
must surface as a failed run (``RunMetrics.failed``), not an exception,
mirroring how Figure 6a reports engines that get stuck.
"""

import pytest

from repro.analysis import paper_cluster, run_algorithms
from repro.baselines import HiveCube, NaiveCube
from repro.core import SPCube
from repro.core.spcube import SKETCH_PATH
from repro.datagen import gen_binomial
from repro.engines import ENGINE_NAMES, load_engines
from repro.mapreduce import ClusterConfig, CostModel, FaultPlan, FaultSpec, RetryPolicy

ENGINES = load_engines(ENGINE_NAMES)

#: Three qualitatively different fault plans, per the acceptance criteria:
#: a map-side crash, a reduce-side crash, and a heavy straggler that
#: triggers speculative execution on every attempt of every job.
PLANS = {
    "map-crash": FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=0)]
    ),
    "reduce-crash": FaultPlan(
        [FaultSpec("crash", phase="reduce", task=0, attempt=0)]
    ),
    # Every map task straggles, so the phase-critical task is slowed too
    # and the speculation launch delay must show up in the total time.
    "straggler": FaultPlan(
        [FaultSpec("straggle", phase="map", slowdown=100.0, attempt=None)]
    ),
}


@pytest.fixture(scope="module")
def relation():
    return gen_binomial(500, 0.3, seed=4)


def make_cluster(fault_plan=None):
    # A tiny speculation launch delay guarantees the backup copy beats a
    # 100x straggler even on these tiny simulated tasks, so the straggler
    # plan deterministically exercises first-finisher-wins.
    return ClusterConfig(
        num_machines=4,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(),
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_faults_change_time_but_not_the_cube(
    relation, engine_name, plan_name
):
    engine_cls = ENGINES[engine_name]
    clean = engine_cls(make_cluster()).compute(relation)
    faulted = engine_cls(make_cluster(PLANS[plan_name])).compute(relation)

    assert faulted.cube == clean.cube  # bit-identical output
    assert not faulted.metrics.failed
    assert faulted.metrics.attempts > clean.metrics.attempts
    assert faulted.metrics.recovered > 0
    assert faulted.metrics.total_seconds > clean.metrics.total_seconds


class TestRetryExhaustion:
    EXHAUSTING = FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=None)]
    )

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_exhausted_budget_fails_without_raising(
        self, relation, engine_name
    ):
        engine = ENGINES[engine_name](make_cluster(self.EXHAUSTING))
        run = engine.compute(relation)  # must not raise
        assert run.metrics.failed
        assert run.metrics.aborted
        assert run.cube.num_groups == 0

    def test_runner_reports_stuck_like_figure_6a(self, relation):
        """run_algorithms with verify must tolerate an aborted engine:
        it is excluded from the cross-check, like Figure 6a's missing
        Hive points, while the surviving engines still verify."""
        algorithms = {
            "spcube": SPCube(make_cluster(self.EXHAUSTING)),
            "naive": NaiveCube(make_cluster()),
            "hive": HiveCube(make_cluster()),
        }
        runs = run_algorithms(relation, algorithms, verify=True)
        assert runs["spcube"].metrics.failed
        assert not runs["naive"].metrics.failed
        assert runs["naive"].cube == runs["hive"].cube


class TestSketchBroadcastFailure:
    def test_dead_sketch_replicas_fail_the_run_cleanly(self, relation):
        plan = FaultPlan([FaultSpec("read-drop", path=SKETCH_PATH)])
        run = SPCube(make_cluster(plan)).compute(relation)  # must not raise
        assert run.metrics.failed
        assert "sketch broadcast failed" in run.metrics.fatal_error
        assert run.cube.num_groups == 0

    def test_single_dead_replica_recovers(self, relation):
        plan = FaultPlan(
            [FaultSpec("read-drop", path=SKETCH_PATH, replica=0)]
        )
        clean = SPCube(make_cluster()).compute(relation)
        faulted = SPCube(make_cluster(plan)).compute(relation)
        assert faulted.cube == clean.cube
        assert faulted.metrics.extras["dfs_read_retries"] >= 1


class TestPaperCluster:
    def test_paper_cluster_threads_fault_configuration(self):
        plan = FaultPlan(seed=3, crash_prob=0.1)
        policy = RetryPolicy(max_attempts=2)
        cluster = paper_cluster(
            1000, num_machines=4, fault_plan=plan, retry_policy=policy
        )
        assert cluster.fault_plan is plan
        assert cluster.retry_policy is policy

    def test_seeded_plan_keeps_engines_identical(self):
        """A probabilistic seeded plan across all engines: everything that
        completes must still agree — the determinism invariant under the
        kind of plan the CLI's --fault-seed builds."""
        relation = gen_binomial(400, 0.3, seed=9)
        plan = FaultPlan(seed=12, crash_prob=0.15, straggle_prob=0.1)
        algorithms = {
            name: cls(make_cluster(plan)) for name, cls in ENGINES.items()
        }
        runs = run_algorithms(relation, algorithms, verify=True)
        completed = [r for r in runs.values() if not r.metrics.aborted]
        assert len(completed) >= 2
        assert sum(r.metrics.attempts for r in completed) > sum(
            len(j.map_tasks) + len(j.reduce_tasks)
            for r in completed
            for j in r.metrics.jobs
        )
