"""Cluster configuration and memory derivation."""

import pytest

from repro.mapreduce import ClusterConfig, FaultPlan, RetryPolicy
from repro.mapreduce.cluster import MEMORY_SLACK


class TestValidation:
    def test_defaults(self):
        cluster = ClusterConfig()
        assert cluster.num_machines == 20
        assert cluster.memory_records is None

    def test_invalid_machines(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_machines=0)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            ClusterConfig(memory_records=0)


class TestMemoryDerivation:
    def test_derives_n_over_k(self):
        cluster = ClusterConfig(num_machines=4)
        assert cluster.derive_memory(100) == 25

    def test_rounds_up(self):
        cluster = ClusterConfig(num_machines=4)
        assert cluster.derive_memory(101) == 26

    def test_explicit_memory_wins(self):
        cluster = ClusterConfig(num_machines=4, memory_records=7)
        assert cluster.derive_memory(1000) == 7

    def test_minimum_one(self):
        assert ClusterConfig(num_machines=8).derive_memory(0) == 1

    def test_physical_memory_applies_slack(self):
        assert MEMORY_SLACK == 2.0
        assert ClusterConfig().physical_memory(100) == 200

    def test_with_memory_copies(self):
        base = ClusterConfig(num_machines=6, seed=99)
        pinned = base.with_memory(50)
        assert pinned.memory_records == 50
        assert pinned.num_machines == 6
        assert pinned.seed == 99
        assert base.memory_records is None

    def test_with_memory_carries_fault_configuration(self):
        plan = FaultPlan(seed=5, crash_prob=0.2)
        policy = RetryPolicy(max_attempts=2)
        base = ClusterConfig(fault_plan=plan, retry_policy=policy)
        pinned = base.with_memory(50)
        assert pinned.fault_plan is plan
        assert pinned.retry_policy is policy


class TestFaultDefaults:
    def test_no_faults_by_default(self):
        cluster = ClusterConfig()
        assert cluster.fault_plan is None
        assert cluster.retry_policy.max_attempts == 4
