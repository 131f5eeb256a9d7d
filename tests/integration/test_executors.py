"""Serial vs parallel execution: named cases of the differential harness.

A run whose tasks :class:`~repro.mapreduce.ParallelExecutor` interleaves
on threads produces the same cube, the same ``JobMetrics`` (minus
``BACKEND_FIELDS``) and the same trace as the serial run —
``tests/test_differential.py`` states and checks it for every engine,
input, fault plan and task order.
"""

import pytest

from ..test_differential import ENGINE_NAMES, Case, check_case, traced_run

PLANS = ["map-crash", "none", "reduce-crash", "straggler"]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("plan_name", PLANS)
def test_parallel_matches_serial_on_binomial(engine_name, plan_name):
    check_case(Case("binomial", "count", engine_name, "parallel", plan_name))


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_parallel_matches_serial_on_zipf(engine_name):
    check_case(Case("zipf", "count", engine_name, "parallel"))


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_parallel_abort_matches_serial(engine_name):
    """A chain that exhausts its budget aborts identically: the merge is
    truncated at the first dead task even though a parallel backend has
    already run the later ones."""
    check_case(Case("binomial", "count", engine_name, "parallel", "exhausting"))
    assert traced_run("binomial", "count", engine_name, "serial", "exhausting").run.metrics.aborted


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_all_rounds_use_configured_executor(engine_name):
    """No round is pinned serial: rounds that hand the driver a result
    through a shared holder list (MR-Cube's annotation) interleave like
    every other, because threads share the holder."""
    run = traced_run("binomial", "count", engine_name, "parallel").run
    assert {job.executor for job in run.metrics.jobs} == {"parallel"}
