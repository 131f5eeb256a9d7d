"""Metrics containers and derived measures."""

from repro.mapreduce import JobMetrics, RunMetrics, TaskMetrics


def job_with_tasks(name="j", map_secs=(), reduce_specs=()):
    """reduce_specs: list of (seconds, records_in)."""
    job = JobMetrics(name=name)
    for seconds in map_secs:
        job.map_tasks.append(TaskMetrics(seconds=seconds))
    for seconds, records in reduce_specs:
        job.reduce_tasks.append(
            TaskMetrics(seconds=seconds, records_in=records)
        )
    return job


class TestJobMetrics:
    def test_avg_map_seconds(self):
        job = job_with_tasks(map_secs=[1.0, 3.0])
        assert job.avg_map_seconds == 2.0

    def test_avg_seconds_empty(self):
        job = JobMetrics(name="empty")
        assert job.avg_map_seconds == 0.0
        assert job.avg_reduce_seconds == 0.0

    def test_avg_reduce_seconds(self):
        job = job_with_tasks(reduce_specs=[(2.0, 1), (4.0, 1)])
        assert job.avg_reduce_seconds == 3.0

    def test_max_reducer_input(self):
        job = job_with_tasks(reduce_specs=[(0, 5), (0, 9), (0, 2)])
        assert job.max_reducer_input_records == 9

    def test_failed_when_aborted(self):
        assert not JobMetrics(name="j").failed
        assert JobMetrics(name="j", aborted=True).failed

    def test_forced_failure_fails_job(self):
        assert JobMetrics(name="j", forced_failure=True).failed


class TestRunMetrics:
    def test_total_seconds_sums_jobs(self):
        run = RunMetrics(algorithm="x")
        for total in (10.0, 5.0):
            job = JobMetrics(name="j", total_seconds=total)
            run.jobs.append(job)
        assert run.total_seconds == 15.0

    def test_intermediate_bytes_sums_jobs(self):
        run = RunMetrics(algorithm="x")
        for size in (100, 250):
            run.jobs.append(JobMetrics(name="j", map_output_bytes=size))
        assert run.intermediate_bytes == 350

    def test_avg_times_come_from_dominant_round(self):
        """Per-task averages refer to the round shuffling the most — the
        materialization round — not to cheap sampling/post-agg rounds."""
        run = RunMetrics(algorithm="x")
        sampling = job_with_tasks(map_secs=[100.0])
        sampling.map_output_records = 10
        cube = job_with_tasks(map_secs=[2.0])
        cube.map_output_records = 10_000
        postagg = job_with_tasks(map_secs=[50.0])
        postagg.map_output_records = 100
        run.jobs.extend([sampling, cube, postagg])
        assert run.avg_map_seconds == 2.0

    def test_failed_any_round(self):
        run = RunMetrics(algorithm="x")
        run.jobs.append(JobMetrics(name="ok"))
        run.jobs.append(JobMetrics(name="bad", forced_failure=True))
        assert run.failed

    def test_reducer_balance(self):
        run = RunMetrics(algorithm="x")
        run.jobs.append(
            job_with_tasks(reduce_specs=[(0, 10), (0, 10), (0, 40)])
        )
        assert run.reducer_balance == 40 / 20

    def test_reducer_balance_empty(self):
        run = RunMetrics(algorithm="x")
        assert run.reducer_balance == 0.0

    def test_extras_dict(self):
        run = RunMetrics(algorithm="x")
        run.extras["sketch_bytes"] = 123
        assert run.extras["sketch_bytes"] == 123


class TestRecoveryAccounting:
    """Satellite of the observability PR: killed attempts are counted in
    the wall-clock/byte totals exactly once, via their chain winner."""

    def faulted_job(self):
        job = JobMetrics(name="j")
        killed = TaskMetrics(
            machine=0, seconds=4.0, bytes_out=100, records_out=10,
            killed=True,
        )
        winner = TaskMetrics(
            machine=0, seconds=20.0, bytes_out=100, records_out=10,
            attempt=1, overhead_seconds=16.0,
        )
        clean = TaskMetrics(
            machine=1, seconds=4.0, bytes_out=50, records_out=5
        )
        job.killed_attempts.append(killed)
        job.map_tasks.extend([winner, clean])
        job.map_output_bytes = 150
        job.map_output_records = 15
        job.attempts = 3
        job.killed_tasks = 1
        job.recovered = 1
        job.map_phase_seconds = 25.0
        job.total_seconds = 25.0
        job.shuffle_seconds = 0.0
        job.reduce_phase_seconds = 0.0
        return job

    def test_clean_job_passes(self):
        job = self.faulted_job()
        job.check_invariants()

    def test_recovery_overhead_sums_winners_only(self):
        job = self.faulted_job()
        assert job.recovery_overhead_seconds == 16.0
        run = RunMetrics(algorithm="x", jobs=[job, self.faulted_job()])
        assert run.recovery_overhead() == 32.0
        run.check_invariants()

    def test_killed_attempt_in_task_list_rejected(self):
        job = self.faulted_job()
        job.map_tasks.append(TaskMetrics(machine=2, killed=True))
        import pytest

        from repro.mapreduce import MetricsInvariantError

        with pytest.raises(MetricsInvariantError, match="leaked"):
            job.check_invariants()

    def test_killed_attempt_with_overhead_rejected(self):
        import pytest

        from repro.mapreduce import MetricsInvariantError

        job = self.faulted_job()
        job.killed_attempts[0].overhead_seconds = 1.0
        with pytest.raises(MetricsInvariantError, match="chain winner"):
            job.check_invariants()

    def test_double_counted_bytes_rejected(self):
        import pytest

        from repro.mapreduce import MetricsInvariantError

        job = self.faulted_job()
        # The classic double-count: adding the killed attempt's bytes to
        # the job total even though its output was discarded.
        job.map_output_bytes += job.killed_attempts[0].bytes_out
        with pytest.raises(MetricsInvariantError, match="killed attempts"):
            job.check_invariants()

    def test_attempt_ledger_mismatch_rejected(self):
        import pytest

        from repro.mapreduce import MetricsInvariantError

        job = self.faulted_job()
        job.attempts += 1
        with pytest.raises(MetricsInvariantError, match="winners"):
            job.check_invariants()

    def test_engine_output_passes_invariants(self):
        from repro.analysis import paper_cluster
        from repro.core import SPCube
        from repro.datagen import gen_zipf
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan(seed=3, crash_prob=0.1, straggle_prob=0.1)
        cluster = paper_cluster(1200, fault_plan=plan)
        run = SPCube(cluster).compute(gen_zipf(1200, seed=1))
        assert run.metrics.killed_tasks > 0  # the plan actually fired
        run.metrics.check_invariants()
        assert run.metrics.recovery_overhead() > 0.0
