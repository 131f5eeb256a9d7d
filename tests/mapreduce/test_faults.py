"""Fault injection and fault tolerance: plans, retries, speculation."""

import pytest

from repro.mapreduce import (
    ClusterConfig,
    CostModel,
    FaultPlan,
    FaultSpec,
    Mapper,
    MapReduceJob,
    PairFormatError,
    Reducer,
    RetryPolicy,
    run_job,
)


def word_count_job(**kwargs):
    def map_fn(record):
        for word in record.split():
            yield word, 1

    def reduce_fn(key, values):
        yield key, sum(values)

    return MapReduceJob.from_functions("wordcount", map_fn, reduce_fn, **kwargs)


def cluster_with(fault_plan=None, retry_policy=None, cost_model=None, k=3):
    return ClusterConfig(
        num_machines=k,
        cost_model=cost_model or CostModel(),
        fault_plan=fault_plan,
        retry_policy=retry_policy or RetryPolicy(),
    )


CHUNKS = [["a b a c"], ["b c d"], ["a d"]]


def baseline_run(**job_kwargs):
    return run_job(word_count_job(**job_kwargs), CHUNKS, cluster_with(), 10)


class TestFaultPlan:
    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.crashes("j", "map", 0, 0)
        assert plan.slowdown_factor("j", "map", 0, 0) == 1.0
        assert not plan.has_node_faults

    def test_explicit_crash_spec_targets_one_attempt(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", task=1, attempt=0)])
        assert plan.crashes("any-job", "map", 1, 0)
        assert not plan.crashes("any-job", "map", 1, 1)  # retry succeeds
        assert not plan.crashes("any-job", "map", 0, 0)
        assert not plan.crashes("any-job", "reduce", 1, 0)

    def test_wildcard_attempt_faults_every_attempt(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=None)])
        for attempt in range(10):
            assert plan.crashes("j", "map", 0, attempt)

    def test_job_scoped_spec(self):
        plan = FaultPlan([FaultSpec("crash", job="sp-cube", phase="reduce")])
        assert plan.crashes("sp-cube", "reduce", 0, 0)
        assert not plan.crashes("sp-sketch", "reduce", 0, 0)

    def test_straggle_spec_reports_slowdown(self):
        plan = FaultPlan(
            [FaultSpec("straggle", phase="map", task=2, slowdown=6.0)]
        )
        assert plan.slowdown_factor("j", "map", 2, 0) == 6.0
        assert plan.slowdown_factor("j", "map", 1, 0) == 1.0

    def test_seeded_decisions_are_deterministic(self):
        a = FaultPlan(seed=7, crash_prob=0.3, straggle_prob=0.3)
        b = FaultPlan(seed=7, crash_prob=0.3, straggle_prob=0.3)
        grid = [
            ("job-%d" % j, phase, task, attempt)
            for j in range(3)
            for phase in ("map", "reduce")
            for task in range(5)
            for attempt in range(3)
        ]
        assert [a.crashes(*point) for point in grid] == [
            b.crashes(*point) for point in grid
        ]
        assert [a.slowdown_factor(*point) for point in grid] == [
            b.slowdown_factor(*point) for point in grid
        ]

    def test_different_seeds_differ(self):
        grid = [("j", "map", task, attempt)
                for task in range(50) for attempt in range(4)]
        a = FaultPlan(seed=1, crash_prob=0.5)
        b = FaultPlan(seed=2, crash_prob=0.5)
        assert [a.crashes(*p) for p in grid] != [b.crashes(*p) for p in grid]

    def test_probability_roughly_honoured(self):
        plan = FaultPlan(seed=3, crash_prob=0.25)
        hits = sum(
            plan.crashes("j", "map", task, 0) for task in range(2000)
        )
        assert 0.15 < hits / 2000 < 0.35

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_prob"):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(ValueError, match="straggle_slowdown"):
            FaultPlan(straggle_slowdown=0.5)
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match="slowdown"):
            FaultSpec("straggle", slowdown=0.9)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(backoff_base_seconds=2.0, backoff_factor=3.0)
        assert policy.backoff_seconds(1) == 2.0
        assert policy.backoff_seconds(2) == 6.0
        assert policy.backoff_seconds(3) == 18.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="speculation_threshold"):
            RetryPolicy(speculation_threshold=1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0)


class TestCrashRetry:
    def test_map_crash_output_identical(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])
        faulted = run_job(
            word_count_job(), CHUNKS, cluster_with(plan), 10
        )
        assert sorted(faulted.output) == sorted(baseline_run().output)

    def test_map_crash_counters_and_chain_time(self):
        clean = baseline_run()
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])
        cluster = cluster_with(plan)
        faulted = run_job(word_count_job(), CHUNKS, cluster, 10)

        metrics = faulted.metrics
        assert metrics.attempts == clean.metrics.attempts + 1
        assert metrics.killed_tasks == 1
        assert metrics.recovered == 1
        assert len(metrics.killed_attempts) == 1
        assert metrics.killed_attempts[0].killed
        assert metrics.killed_attempts[0].attempt == 0

        nominal = clean.metrics.map_tasks[0].seconds
        winner = metrics.map_tasks[0]
        assert winner.attempt == 1
        assert winner.seconds == pytest.approx(
            2 * nominal
            + cluster.cost_model.crash_detection_seconds
            + cluster.retry_policy.backoff_seconds(1)
        )
        assert metrics.total_seconds > clean.metrics.total_seconds

    def test_two_consecutive_crashes_accumulate_backoff(self):
        plan = FaultPlan(
            [
                FaultSpec("crash", phase="map", task=0, attempt=0),
                FaultSpec("crash", phase="map", task=0, attempt=1),
            ]
        )
        cluster = cluster_with(plan)
        clean = baseline_run()
        faulted = run_job(word_count_job(), CHUNKS, cluster, 10)
        nominal = clean.metrics.map_tasks[0].seconds
        cost = cluster.cost_model
        policy = cluster.retry_policy
        assert faulted.metrics.map_tasks[0].seconds == pytest.approx(
            3 * nominal
            + 2 * cost.crash_detection_seconds
            + policy.backoff_seconds(1)
            + policy.backoff_seconds(2)
        )
        assert sorted(faulted.output) == sorted(clean.output)

    def test_reduce_crash_output_identical(self):
        plan = FaultPlan(
            [FaultSpec("crash", phase="reduce", task=0, attempt=0)]
        )
        faulted = run_job(word_count_job(), CHUNKS, cluster_with(plan), 10)
        clean = baseline_run()
        assert sorted(faulted.output) == sorted(clean.output)
        assert faulted.metrics.recovered == 1
        assert faulted.metrics.reduce_tasks[0].attempt == 1
        assert faulted.metrics.total_seconds > clean.metrics.total_seconds

    def test_crash_with_combiner_output_identical(self):
        def combiner(key, values):
            yield key, sum(values)

        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])
        faulted = run_job(
            word_count_job(combiner=combiner), CHUNKS, cluster_with(plan), 10
        )
        assert sorted(faulted.output) == sorted(baseline_run().output)

    def test_mapper_close_state_rebuilt_per_attempt(self):
        """A crashed attempt's close() flush must not leak into the next
        attempt — the SP-Cube map-side partial-aggregate pattern."""

        class PartialAggMapper(Mapper):
            def setup(self, context):
                super().setup(context)
                self.partials = {}

            def map(self, record):
                self.partials["g"] = self.partials.get("g", 0) + record
                return ()

            def close(self):
                yield from sorted(self.partials.items())

        class MergeReducer(Reducer):
            def reduce(self, key, values):
                yield key, sum(values)

        job = MapReduceJob(
            "partials", PartialAggMapper, MergeReducer, num_reducers=1
        )
        chunks = [[1, 2, 3], [10]]
        clean = run_job(job, chunks, cluster_with(), 10)
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)])
        faulted = run_job(job, chunks, cluster_with(plan), 10)
        # Double-flushing the first attempt's partials would give 22.
        assert clean.output == [("g", 16)]
        assert faulted.output == [("g", 16)]

    def test_seeded_faulted_runs_are_reproducible(self):
        plan = FaultPlan(seed=11, crash_prob=0.4, straggle_prob=0.2)
        first = run_job(word_count_job(), CHUNKS, cluster_with(plan), 10)
        second = run_job(word_count_job(), CHUNKS, cluster_with(plan), 10)
        assert first.output == second.output
        assert first.metrics.attempts == second.metrics.attempts
        assert first.metrics.total_seconds == second.metrics.total_seconds


class TestSpeculation:
    #: Launch delay small enough that the backup beats a slowed original
    #: even on tiny simulated tasks.
    COST = CostModel(speculation_launch_seconds=1e-4)

    def test_backup_wins_against_heavy_straggler(self):
        # Straggle task 0 — it holds the biggest chunk, so it determines
        # the map-phase time and the backup's launch delay must show up
        # in the total.
        plan = FaultPlan(
            [FaultSpec("straggle", phase="map", task=0, slowdown=50.0)]
        )
        cluster = cluster_with(plan, cost_model=self.COST)
        clean = run_job(
            word_count_job(), CHUNKS, cluster_with(cost_model=self.COST), 10
        )
        faulted = run_job(word_count_job(), CHUNKS, cluster, 10)

        metrics = faulted.metrics
        nominal = clean.metrics.map_tasks[0].seconds
        assert metrics.speculative_wins == 1
        assert metrics.killed_tasks == 1  # the slowed original is killed
        assert metrics.attempts == clean.metrics.attempts + 1
        assert metrics.recovered == 1
        assert metrics.map_tasks[0].speculative
        assert metrics.map_tasks[0].seconds == pytest.approx(
            self.COST.speculation_launch_seconds + nominal
        )
        assert sorted(faulted.output) == sorted(clean.output)
        assert metrics.total_seconds > clean.metrics.total_seconds

    def test_mild_straggler_runs_without_backup(self):
        plan = FaultPlan(
            [FaultSpec("straggle", phase="map", task=1, slowdown=1.2)]
        )
        cluster = cluster_with(
            plan, retry_policy=RetryPolicy(speculation_threshold=1.5)
        )
        clean = baseline_run()
        faulted = run_job(word_count_job(), CHUNKS, cluster, 10)
        assert faulted.metrics.speculative_wins == 0
        assert faulted.metrics.attempts == clean.metrics.attempts
        assert faulted.metrics.map_tasks[1].seconds == pytest.approx(
            1.2 * clean.metrics.map_tasks[1].seconds
        )

    def test_speculation_can_be_disabled(self):
        plan = FaultPlan(
            [FaultSpec("straggle", phase="map", task=1, slowdown=50.0)]
        )
        cluster = cluster_with(
            plan,
            cost_model=self.COST,
            retry_policy=RetryPolicy(speculation_enabled=False),
        )
        clean = run_job(
            word_count_job(), CHUNKS, cluster_with(cost_model=self.COST), 10
        )
        faulted = run_job(word_count_job(), CHUNKS, cluster, 10)
        assert faulted.metrics.speculative_wins == 0
        assert faulted.metrics.map_tasks[1].seconds == pytest.approx(
            50.0 * clean.metrics.map_tasks[1].seconds
        )


class TestRetryExhaustion:
    def test_map_exhaustion_aborts_job(self):
        plan = FaultPlan(
            [FaultSpec("crash", phase="map", task=0, attempt=None)]
        )
        policy = RetryPolicy(max_attempts=3)
        result = run_job(
            word_count_job(), CHUNKS, cluster_with(plan, policy), 10
        )
        metrics = result.metrics
        assert metrics.aborted
        assert metrics.failed
        assert "map task 0" in metrics.abort_reason
        assert result.output == []
        assert result.reducer_outputs == []
        assert metrics.attempts == 3
        assert metrics.killed_tasks == 3
        # The dead chain still consumed simulated time.
        assert metrics.total_seconds > 0
        assert metrics.map_phase_seconds > (
            3 * cluster_with().cost_model.crash_detection_seconds
        )

    def test_reduce_exhaustion_aborts_after_map(self):
        plan = FaultPlan(
            [FaultSpec("crash", phase="reduce", task=1, attempt=None)]
        )
        result = run_job(
            word_count_job(), CHUNKS, cluster_with(plan), 10
        )
        metrics = result.metrics
        assert metrics.aborted
        assert "reduce task 1" in metrics.abort_reason
        assert result.output == []
        assert len(metrics.map_tasks) == len(CHUNKS)  # map completed
        assert metrics.map_output_records > 0

    def test_single_attempt_policy(self):
        plan = FaultPlan([FaultSpec("crash", phase="map", task=0)])
        policy = RetryPolicy(max_attempts=1)
        result = run_job(
            word_count_job(), CHUNKS, cluster_with(plan, policy), 10
        )
        assert result.metrics.aborted


class TestPairValidation:
    def _null_reduce(self, key, values):
        return ()

    def test_mapper_emitting_non_pair_is_named(self):
        job = MapReduceJob.from_functions(
            "badmap", lambda record: [42], self._null_reduce
        )
        with pytest.raises(PairFormatError, match=r"'badmap'.*map task 0.*42"):
            run_job(job, [[1]], cluster_with(), 10)

    def test_reducer_emitting_triple_is_named(self):
        job = MapReduceJob.from_functions(
            "badreduce",
            lambda record: [(record, 1)],
            lambda key, values: [(key, 1, 2)],
        )
        with pytest.raises(PairFormatError, match="reduce task"):
            run_job(job, [["x"]], cluster_with(), 10)

    def test_combiner_emitting_non_pair_is_named(self):
        def combiner(key, values):
            yield key  # not a pair

        job = word_count_job(combiner=combiner)
        with pytest.raises(PairFormatError, match="combiner"):
            run_job(job, [["a"]], cluster_with(), 10)

    def test_error_is_a_type_error_for_backward_compat(self):
        assert issubclass(PairFormatError, TypeError)
