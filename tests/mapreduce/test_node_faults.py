"""Node-level failure domains: topology, kill schedules, chain behaviour."""

import pytest

from repro.mapreduce.cluster import ClusterConfig, NodeTopology
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.faults import FaultPlan, NodeFaultSpec, RetryPolicy
from repro.mapreduce.executor import run_task_chain
from repro.mapreduce.metrics import TaskMetrics


class TestNodeFaultSpec:
    def test_valid(self):
        spec = NodeFaultSpec(node=2, at_seconds=10.0, job="round-2")
        assert spec.node == 2 and spec.job == "round-2"

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            NodeFaultSpec(node=-1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at_seconds"):
            NodeFaultSpec(node=0, at_seconds=-0.5)


class TestFaultPlanNodeFields:
    def test_node_crash_prob_validated(self):
        with pytest.raises(ValueError, match="node_crash_prob"):
            FaultPlan(node_crash_prob=1.5)

    def test_has_node_faults(self):
        assert not FaultPlan(crash_prob=0.5).has_node_faults
        assert FaultPlan(node_specs=[NodeFaultSpec(node=0)]).has_node_faults
        assert FaultPlan(node_crash_prob=0.01).has_node_faults


class TestNodeKillsForJob:
    def test_job_pinned_fires_only_for_that_job(self):
        plan = FaultPlan(
            node_specs=[NodeFaultSpec(node=1, at_seconds=7.0, job="r2")]
        )
        assert plan.node_kills_for_job("r1", 0.0, 4) == {}
        assert plan.node_kills_for_job("r2", 0.0, 4) == {1: 7.0}
        # Job-pinned times are round-relative: the run clock is irrelevant.
        assert plan.node_kills_for_job("r2", 500.0, 4) == {1: 7.0}

    def test_run_relative_fires_in_containing_window(self):
        plan = FaultPlan(node_specs=[NodeFaultSpec(node=0, at_seconds=30.0)])
        # Job starting at t=0 sees the kill 30s in.
        assert plan.node_kills_for_job("a", 0.0, 2) == {0: 30.0}
        # Job starting at t=25 sees it 5s in.
        assert plan.node_kills_for_job("b", 25.0, 2) == {0: 5.0}
        # Once the run clock passes the kill instant it is spent.
        assert plan.node_kills_for_job("c", 31.0, 2) == {}

    def test_replaced_nodes_are_skipped(self):
        plan = FaultPlan(
            node_specs=[NodeFaultSpec(node=1, job="r")],
            node_crash_prob=1.0,
        )
        kills = plan.node_kills_for_job("r", 0.0, 3, replaced=frozenset({1}))
        assert 1 not in kills
        assert plan.node_kills_for_job(
            "r", 0.0, 3, replaced=frozenset({0, 1, 2})
        ) == {}

    def test_out_of_range_node_ignored(self):
        plan = FaultPlan(node_specs=[NodeFaultSpec(node=9)])
        assert plan.node_kills_for_job("r", 0.0, 3) == {}

    def test_earliest_spec_wins_per_node(self):
        plan = FaultPlan(node_specs=[
            NodeFaultSpec(node=0, at_seconds=20.0, job="r"),
            NodeFaultSpec(node=0, at_seconds=5.0, job="r"),
        ])
        assert plan.node_kills_for_job("r", 0.0, 2) == {0: 5.0}

    def test_probabilistic_kills_are_deterministic(self):
        plan = FaultPlan(seed=3, node_crash_prob=0.4)
        first = plan.node_kills_for_job("round", 0.0, 16)
        assert first == plan.node_kills_for_job("round", 0.0, 16)
        assert all(t == 0.0 for t in first.values())
        # Certain death kills every node at the round start.
        sure = FaultPlan(node_crash_prob=1.0)
        assert sure.node_kills_for_job("round", 0.0, 4) == {
            0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0,
        }


class TestNodeTopology:
    def test_round_robin_placement(self):
        topo = NodeTopology(num_nodes=3, num_machines=8)
        assert [topo.node_of(m) for m in range(8)] == [
            0, 1, 2, 0, 1, 2, 0, 1,
        ]
        assert topo.machines_on(2) == (2, 5)

    def test_machine_out_of_range(self):
        topo = NodeTopology(num_nodes=2, num_machines=4)
        with pytest.raises(ValueError, match="out of range"):
            topo.node_of(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_nodes"):
            NodeTopology(num_nodes=0, num_machines=4)
        with pytest.raises(ValueError, match="num_nodes"):
            NodeTopology(num_nodes=5, num_machines=4)

    def test_replica_nodes_stable_and_spread(self):
        topo = NodeTopology(num_nodes=5, num_machines=10)
        nodes = [topo.replica_node("dfs/some/path", r) for r in range(3)]
        assert nodes == [topo.replica_node("dfs/some/path", r)
                         for r in range(3)]
        # Consecutive replicas walk the ring: all distinct while
        # replication <= num_nodes.
        assert len(set(nodes)) == 3


class TestClusterTopology:
    def test_default_is_one_node_per_machine(self):
        topo = ClusterConfig(num_machines=6).topology()
        assert topo.num_nodes == 6
        assert topo.node_of(4) == 4

    def test_num_nodes_validated_eagerly(self):
        with pytest.raises(ValueError, match="num_nodes"):
            ClusterConfig(num_machines=4, num_nodes=9)

    def test_checkpoint_enabled_by_default(self):
        assert ClusterConfig().checkpoint_enabled


def run_chain(node_kill_at, max_attempts=3, seconds=10.0, trace=False):
    def attempt():
        return TaskMetrics(machine=0, seconds=seconds), "payload"

    return run_task_chain(
        attempt,
        job_name="j",
        phase="map",
        machine=0,
        faults=FaultPlan(),
        retry=RetryPolicy(max_attempts=max_attempts),
        cost=CostModel(),
        trace=trace,
        node_kill_at=node_kill_at,
    )


class TestRunTaskChainNodeKill:
    def test_no_kill_means_healthy_chain(self):
        outcome = run_chain(node_kill_at=None)
        assert not outcome.exhausted
        assert outcome.attempts == 1

    def test_kill_mid_attempt_exhausts_the_chain(self):
        # The node dies 4s into a 10s attempt; every retry lands on the
        # dead slot and dies instantly, so the chain must exhaust.
        outcome = run_chain(node_kill_at=4.0)
        assert outcome.exhausted
        assert outcome.attempts == 3
        assert outcome.killed_tasks == 3
        assert outcome.killed_attempts[0].seconds == pytest.approx(4.0)
        # Retries placed after the death lose no work of their own.
        assert outcome.killed_attempts[1].seconds == 0.0

    def test_kill_after_completion_does_not_fire(self):
        outcome = run_chain(node_kill_at=10.0)
        assert not outcome.exhausted
        assert outcome.killed_tasks == 0

    def test_trace_records_node_kill_cause(self):
        outcome = run_chain(node_kill_at=4.0, trace=True)
        crashes = [r for r in outcome.trace if r.get("kind") == "crash"]
        assert crashes
        assert all(
            r["fields"]["cause"] == "node-kill" for r in crashes
        )

    def test_ordinary_crash_has_no_cause_field(self):
        def attempt():
            return TaskMetrics(machine=0, seconds=5.0), None

        outcome = run_task_chain(
            attempt,
            job_name="j",
            phase="map",
            machine=0,
            faults=FaultPlan(crash_prob=1.0),
            retry=RetryPolicy(max_attempts=2),
            cost=CostModel(),
            trace=True,
        )
        crashes = [r for r in outcome.trace if r.get("kind") == "crash"]
        assert crashes
        assert all("cause" not in r["fields"] for r in crashes)
