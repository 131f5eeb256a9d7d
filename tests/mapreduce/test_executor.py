"""Executor backends: chain driver, serial/parallel parity, fallbacks.

The contract under test (see ``repro.mapreduce.executor``): a task chain
is a pure function of its inputs that accumulates fault counters into a
:class:`TaskOutcome`; both executors return outcomes in task-index
order; exhausted chains surface as ``task=None``, never as exceptions;
and the parallel backend degrades to threads for non-picklable tasks
while producing byte-identical outcomes.
"""

import pickle

import pytest

from repro.mapreduce import (
    PARALLELISM_ENV,
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
    build_executor,
    resolve_parallelism,
    run_task_chain,
)
from repro.mapreduce.executor import _TaskBatch, batch_slices


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
    """A picklable task callable, as the engine's _MapTask/_ReduceTask are."""

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

    def test_process_pool_outcomes_match_serial(self):
        tasks = [_IndexTask(i) for i in range(6)]
        assert ParallelExecutor._picklable(tasks[0])
        serial = SerialExecutor().run_tasks(tasks)
        parallel = ParallelExecutor(3).run_tasks(tasks)
        assert [o.payload for o in parallel] == [o.payload for o in serial]
        assert [o.task.machine for o in parallel] == list(range(6))

    def test_unpicklable_tasks_fall_back_to_threads(self):
        # Lambdas cannot cross a process boundary; the thread fallback
        # must still return identical outcomes in order.
        hidden = object()  # captured, unpicklable-by-reference state
        tasks = [
            (lambda i=i: TaskOutcome(task=TaskMetrics(machine=i), payload=(i, id(hidden))))
            for i in range(4)
        ]
        assert not ParallelExecutor._picklable(tasks[0])
        outcomes = ParallelExecutor(2).run_tasks(tasks)
        assert [o.task.machine for o in outcomes] == [0, 1, 2, 3]

    def test_single_task_runs_serially(self):
        outcomes = ParallelExecutor(4).run_tasks([_IndexTask(7)])
        assert [o.payload for o in outcomes] == [49]

    def test_dead_chains_are_outcomes_not_exceptions(self):
        tasks = [_IndexTask(0), _dead_task, _IndexTask(2)]
        # Parallel backends run everything; the engine truncates later.
        outcomes = ParallelExecutor(2).run_tasks(tasks)
        assert len(outcomes) == 3
        assert outcomes[1].exhausted


class TestResolveParallelism:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "8")
        assert resolve_parallelism(2) == 2

    def test_env_var_is_consulted(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "3")
        assert resolve_parallelism() == 3

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(PARALLELISM_ENV, raising=False)
        assert resolve_parallelism() == 1

    @pytest.mark.parametrize("bad", ["zero", "0", "-2", "1.5"])
    def test_invalid_env_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv(PARALLELISM_ENV, bad)
        with pytest.raises(ValueError):
            resolve_parallelism()

    def test_build_executor_picks_backend(self, monkeypatch):
        monkeypatch.delenv(PARALLELISM_ENV, raising=False)
        assert isinstance(build_executor(), SerialExecutor)
        assert isinstance(build_executor(1), SerialExecutor)
        executor = build_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 4


class TestClusterParallelism:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(parallelism=0)

    def test_executor_construction(self, monkeypatch):
        monkeypatch.delenv(PARALLELISM_ENV, raising=False)
        assert isinstance(ClusterConfig().task_executor(), SerialExecutor)
        cluster = ClusterConfig(parallelism=3)
        assert cluster.effective_parallelism() == 3
        assert isinstance(cluster.task_executor(), ParallelExecutor)

    def test_with_memory_preserves_parallelism(self):
        cluster = ClusterConfig(parallelism=5)
        assert cluster.with_memory(128).parallelism == 5


class TestTaskFactory:
    def test_builds_fresh_instances(self):
        factory = TaskFactory(FunctionMapper, len)
        first, second = factory(), factory()
        assert isinstance(first, FunctionMapper)
        assert first is not second

    def test_round_trips_through_pickle(self):
        factory = TaskFactory(FunctionMapper, len)
        clone = pickle.loads(pickle.dumps(factory))
        assert isinstance(clone(), FunctionMapper)


class TestBatchSlices:
    def test_even_split(self):
        assert batch_slices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_earlier_batches(self):
        assert batch_slices(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_batches_than_tasks_collapses(self):
        assert batch_slices(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_batch(self):
        assert batch_slices(5, 1) == [(0, 5)]

    @pytest.mark.parametrize("num_tasks", [1, 2, 7, 16, 100])
    @pytest.mark.parametrize("num_batches", [1, 2, 3, 8])
    def test_slices_cover_every_task_exactly_once(
        self, num_tasks, num_batches
    ):
        slices = batch_slices(num_tasks, num_batches)
        covered = [
            index for start, stop in slices for index in range(start, stop)
        ]
        assert covered == list(range(num_tasks))


class TestTaskBatch:
    def test_runs_tasks_in_order(self):
        order = []

        def make(i):
            def task():
                order.append(i)
                return i * i

            return task

        batch = _TaskBatch([make(i) for i in range(5)])
        assert batch() == [0, 1, 4, 9, 16]
        assert order == [0, 1, 2, 3, 4]

    def test_empty_batch(self):
        assert _TaskBatch([])() == []

    def test_shared_state_pickles_once_per_batch(self):
        """The batch's one pickle.dumps memoizes shared objects: N tasks
        referencing the same big state serialize barely larger than one."""
        big = ["y" * 64] * 5_000

        single = len(pickle.dumps(_TaskBatch([_Closing(big)])))
        batched = len(pickle.dumps(_TaskBatch([_Closing(big)] * 8)))
        assert batched < single * 2


class _Closing:
    """Picklable task closing over (potentially shared) state."""

    def __init__(self, state):
        self.state = state

    def __call__(self):
        return len(self.state)
