"""Executor backends: chain driver, serial/parallel parity.

The contract under test (see ``repro.mapreduce.executor``): a task chain
is a pure function of its inputs that accumulates fault counters into a
:class:`TaskOutcome`; both executors return outcomes in task-index
order; exhausted chains surface as ``task=None``, never as exceptions.
"""

import time

import pytest

from repro.mapreduce import (
    ClusterConfig,
    CostModel,
    FaultPlan,
    FaultSpec,
    FunctionMapper,
    NO_FAULTS,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    TaskFactory,
    TaskMetrics,
    TaskOutcome,
    run_task_chain,
)


def _attempt(seconds=1.0, payload="out"):
    """An attempt_fn producing a fresh TaskMetrics every call, as the
    engine's real attempt functions do."""

    def attempt_fn():
        return TaskMetrics(machine=0, seconds=seconds), payload

    return attempt_fn


def _chain(faults, retry=None, cost=None, seconds=1.0):
    return run_task_chain(
        _attempt(seconds=seconds),
        job_name="job",
        phase="map",
        machine=0,
        faults=faults,
        retry=retry or RetryPolicy(),
        cost=cost or CostModel(),
    )


class TestRunTaskChain:
    def test_clean_chain_is_one_attempt(self):
        outcome = _chain(NO_FAULTS)
        assert outcome.attempts == 1
        assert outcome.killed_tasks == 0
        assert outcome.recovered == 0
        assert outcome.killed_attempts == []
        assert not outcome.exhausted
        assert outcome.task.seconds == 1.0
        assert outcome.payload == "out"

    def test_crash_then_retry_accumulates_into_outcome(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])
        outcome = _chain(plan)
        assert outcome.attempts == 2
        assert outcome.killed_tasks == 1
        assert outcome.recovered == 1
        assert len(outcome.killed_attempts) == 1
        assert outcome.killed_attempts[0].killed
        # The winner's seconds cover the dead attempt + backoff + its run.
        assert outcome.task.seconds > 1.0
        assert outcome.task.attempt == 1

    def test_straggler_earns_a_speculative_win(self):
        plan = FaultPlan(
            [FaultSpec("straggle", phase="map", slowdown=100.0, attempt=None)]
        )
        cost = CostModel(speculation_launch_seconds=1e-4)
        outcome = _chain(plan, cost=cost)
        assert outcome.speculative_wins == 1
        assert outcome.task.speculative
        assert outcome.recovered == 1
        # Backup copy beats the 100x straggler: launch delay + nominal.
        assert outcome.task.seconds == pytest.approx(1.0 + 1e-4)

    def test_exhausted_budget_returns_dead_outcome(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", attempt=None)])
        retry = RetryPolicy(max_attempts=3)
        outcome = _chain(plan, retry=retry)
        assert outcome.exhausted
        assert outcome.task is None
        assert outcome.attempts == 3
        assert outcome.killed_tasks == 3
        assert outcome.chain_seconds > 0.0


class _IndexTask:
    """A task callable, as the engine's _Task is."""

    def __init__(self, index):
        self.index = index

    def __call__(self):
        return TaskOutcome(
            task=TaskMetrics(machine=self.index, seconds=1.0),
            payload=self.index * self.index,
            attempts=1,
        )


def _dead_task():
    return TaskOutcome(task=None, payload=None, attempts=4)


class TestSerialExecutor:
    def test_outcomes_in_task_order(self):
        tasks = [_IndexTask(i) for i in range(5)]
        outcomes = SerialExecutor().run_tasks(tasks)
        assert [o.payload for o in outcomes] == [0, 1, 4, 9, 16]

    def test_stop_early_halts_dispatch(self):
        tasks = [_IndexTask(0), _dead_task, _IndexTask(2)]
        outcomes = SerialExecutor().run_tasks(
            tasks, stop_early=lambda o: o.exhausted
        )
        assert len(outcomes) == 2  # the third task never ran
        assert outcomes[1].exhausted


class TestParallelExecutor:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_outcomes_in_task_order_under_threads(self):
        # Earlier tasks finish last, on more tasks than threads: order
        # comes from the task index, never from completion.
        def slow(index):
            def task():
                time.sleep(0.002 * (6 - index))
                return _IndexTask(index)()
            return task

        tasks = [slow(i) for i in range(6)]
        serial = SerialExecutor().run_tasks(tasks)
        parallel = ParallelExecutor(3).run_tasks(tasks)
        assert [o.payload for o in parallel] == [o.payload for o in serial]
        assert [o.task.machine for o in parallel] == list(range(6))

    def test_single_task_runs_serially(self):
        outcomes = ParallelExecutor(4).run_tasks([_IndexTask(7)])
        assert [o.payload for o in outcomes] == [49]

    def test_dead_chains_are_outcomes_not_exceptions(self):
        tasks = [_IndexTask(0), _dead_task, _IndexTask(2)]
        # The threads run everything; the engine truncates later.
        outcomes = ParallelExecutor(2).run_tasks(tasks)
        assert len(outcomes) == 3
        assert outcomes[1].exhausted


class TestClusterParallelism:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(parallelism=0)

    def test_executor_construction(self, monkeypatch):
        # The environment selects nothing: one value, on the cluster.
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        assert isinstance(ClusterConfig().task_executor(), SerialExecutor)
        assert isinstance(
            ClusterConfig(parallelism=1).task_executor(), SerialExecutor
        )
        executor = ClusterConfig(parallelism=3).task_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 3

    def test_with_memory_preserves_parallelism(self):
        cluster = ClusterConfig(parallelism=5)
        assert cluster.with_memory(128).parallelism == 5


class TestTaskFactory:
    def test_builds_fresh_instances(self):
        factory = TaskFactory(FunctionMapper, len)
        first, second = factory(), factory()
        assert isinstance(first, FunctionMapper)
        assert first is not second
