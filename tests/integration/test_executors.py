"""Serial vs parallel execution: bit-identical cubes and metrics.

The tentpole invariant of the executor layer: for every engine, on every
workload, with or without injected faults, a run whose tasks the
:class:`~repro.mapreduce.ParallelExecutor` interleaves on threads
produces the *same ``CubeResult``* and the *same ``JobMetrics``* as the
:class:`~repro.mapreduce.SerialExecutor` — parallelism may only change
real wall-clock time, never the simulation.  The only fields allowed to
differ are the executor name and the two wall-clock diagnostics, which
exist precisely to measure the backend.
"""

from dataclasses import asdict

import pytest

from repro.datagen import gen_binomial, gen_zipf
from repro.engines import ENGINE_NAMES, load_engines
from repro.mapreduce import ClusterConfig, CostModel, FaultPlan, FaultSpec, RetryPolicy

ENGINES = load_engines(ENGINE_NAMES)

#: The fault plans of tests/integration/test_fault_tolerance.py plus the
#: fault-free baseline: parity must hold through crash-retry chains and
#: speculative execution, not just on the happy path.
PLANS = {
    "none": None,
    "map-crash": FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=0)]
    ),
    "reduce-crash": FaultPlan(
        [FaultSpec("crash", phase="reduce", task=0, attempt=0)]
    ),
    "straggler": FaultPlan(
        [FaultSpec("straggle", phase="map", slowdown=100.0, attempt=None)]
    ),
}

#: JobMetrics fields that describe the backend rather than the
#: simulation; everything else must match exactly.
BACKEND_FIELDS = ("executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds")


def make_cluster(fault_plan=None, parallelism=None):
    return ClusterConfig(
        num_machines=4,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(),
        parallelism=parallelism,
    )


@pytest.fixture(scope="module")
def binomial():
    return gen_binomial(500, 0.3, seed=4)


@pytest.fixture(scope="module")
def zipf():
    return gen_zipf(400, seed=11)


def assert_runs_identical(serial_run, parallel_run):
    assert parallel_run.cube == serial_run.cube
    assert len(parallel_run.metrics.jobs) == len(serial_run.metrics.jobs)
    for serial_job, parallel_job in zip(
        serial_run.metrics.jobs, parallel_run.metrics.jobs
    ):
        serial_dict, parallel_dict = asdict(serial_job), asdict(parallel_job)
        for backend_field in BACKEND_FIELDS:
            serial_dict.pop(backend_field)
            parallel_dict.pop(backend_field)
        assert parallel_dict == serial_dict, serial_job.name
    assert parallel_run.metrics.extras == serial_run.metrics.extras
    assert parallel_run.metrics.output_groups == serial_run.metrics.output_groups


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_parallel_matches_serial_on_binomial(binomial, engine_name, plan_name):
    engine_cls = ENGINES[engine_name]
    serial = engine_cls(make_cluster(PLANS[plan_name])).compute(binomial)
    parallel = engine_cls(
        make_cluster(PLANS[plan_name], parallelism=3)
    ).compute(binomial)
    assert_runs_identical(serial, parallel)
    assert all(job.executor == "serial" for job in serial.metrics.jobs)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_parallel_matches_serial_on_zipf(zipf, engine_name):
    engine_cls = ENGINES[engine_name]
    serial = engine_cls(make_cluster()).compute(zipf)
    parallel = engine_cls(make_cluster(parallelism=3)).compute(zipf)
    assert_runs_identical(serial, parallel)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_parallel_abort_matches_serial(binomial, engine_name):
    """A chain that exhausts its budget aborts identically: the merge is
    truncated at the first dead task even though a parallel backend has
    already run the later ones."""
    exhausting = FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=None)]
    )
    engine_cls = ENGINES[engine_name]
    serial = engine_cls(make_cluster(exhausting)).compute(binomial)
    parallel = engine_cls(
        make_cluster(exhausting, parallelism=3)
    ).compute(binomial)
    assert serial.metrics.aborted
    assert_runs_identical(serial, parallel)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_all_rounds_use_configured_executor(binomial, engine_name):
    """No round is pinned serial: rounds that hand the driver a result
    through a shared holder list (MR-Cube's annotation) interleave like
    every other, because threads share the holder."""
    run = ENGINES[engine_name](make_cluster(parallelism=3)).compute(binomial)
    assert {job.executor for job in run.metrics.jobs} == {"parallel"}
