"""End-to-end fault tolerance: injected faults never change the cube.

The headline invariant of the fault layer: a run under any fault plan
that stays within the retry budget produces a cube *identical* to the
fault-free run — retries and speculation change only the simulated
clock, never the data.  A plan that exhausts the budget must surface as
a failed run (``RunMetrics.failed``), not an exception, mirroring how
Figure 6a reports engines that get stuck.  The differential harness
(``tests/test_differential.py``) checks both under every plan; these ids
name its cases.
"""

import pytest

from repro.analysis import paper_cluster, run_algorithms
from repro.baselines import HiveCube, NaiveCube
from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.engines import load_engines
from repro.mapreduce import ClusterConfig, CostModel, FaultPlan, FaultSpec, RetryPolicy

from ..test_differential import ENGINE_NAMES, Case, check_case, traced_run
from ..test_differential import relation as harness_relation


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("plan_name", ["map-crash", "reduce-crash", "straggler"])
def test_faults_change_time_but_not_the_cube(engine_name, plan_name):
    check_case(Case("binomial", "count", engine_name, "serial", plan_name))
    clean = traced_run("binomial", "count", engine_name).run.metrics
    faulted = traced_run("binomial", "count", engine_name, "serial", plan_name).run.metrics
    assert not faulted.failed
    assert faulted.attempts > clean.attempts
    assert faulted.recovered > 0


def make_cluster(fault_plan=None):
    # A tiny speculation launch delay guarantees the backup copy beats a
    # 100x straggler even on these tiny simulated tasks.
    return ClusterConfig(
        num_machines=4,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(),
    )


class TestRetryExhaustion:
    EXHAUSTING = FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=None)]
    )

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_exhausted_budget_fails_without_raising(self, engine_name):
        check_case(Case("binomial", "count", engine_name, "serial", "exhausting"))
        metrics = traced_run(
            "binomial", "count", engine_name, "serial", "exhausting"
        ).run.metrics
        assert metrics.failed and metrics.aborted

    def test_runner_reports_stuck_like_figure_6a(self):
        """run_algorithms with verify must tolerate an aborted engine:
        it is excluded from the cross-check, like Figure 6a's missing
        Hive points, while the surviving engines still verify."""
        algorithms = {
            "spcube": SPCube(make_cluster(self.EXHAUSTING)),
            "naive": NaiveCube(make_cluster()),
            "hive": HiveCube(make_cluster()),
        }
        runs = run_algorithms(
            harness_relation("binomial"), algorithms, verify=True
        )
        assert runs["spcube"].metrics.failed
        assert not runs["naive"].metrics.failed
        assert runs["naive"].cube == runs["hive"].cube


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
            name: cls(make_cluster(plan))
            for name, cls in load_engines(ENGINE_NAMES).items()
        }
        runs = run_algorithms(relation, algorithms, verify=True)
        completed = [r for r in runs.values() if not r.metrics.aborted]
        assert len(completed) >= 2
        assert sum(r.metrics.attempts for r in completed) > sum(
            len(j.map_tasks) + len(j.reduce_tasks)
            for r in completed
            for j in r.metrics.jobs
        )
