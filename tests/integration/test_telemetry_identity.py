"""Tracing is observation-only, and its derived metrics are deterministic.

Both follow from the spine suite
(``tests/observability/test_trace_integration.py``: byte-identical
traces, live sinks == replay); these checks stay as the engine-by-engine
statement of the two invariants at the metrics level, over the same
cached runs.
"""

import dataclasses

import pytest

from repro.mapreduce import ClusterConfig

from ..observability.spine import ENGINES, simulation, spine_run, untraced_run


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_telemetry_does_not_change_serial_runs(engine_name):
    traced = spine_run(engine_name)
    assert simulation(traced.run) == simulation(untraced_run(engine_name))
    # The derivation actually ran.
    assert traced.live.telemetry.registry.get("repro_jobs_total").series()


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_telemetry_does_not_change_parallel_runs(engine_name):
    # Against the untraced *serial* run: backends agreeing when nothing
    # is traced is tests/integration/test_executors.py's job.
    traced = spine_run(engine_name, parallelism=2)
    assert simulation(traced.run) == simulation(untraced_run(engine_name))


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_sim_samples_identical_serial_vs_parallel(engine_name):
    serial = spine_run(engine_name).live.telemetry
    parallel = spine_run(engine_name, parallelism=2).live.telemetry
    assert parallel.prometheus_text() == serial.prometheus_text() != ""


def test_sim_samples_identical_under_faults():
    """Crash-retry chains and a resumed round count the same too."""
    for faults in ("task-faults", "node-loss"):
        serial = spine_run("spcube", faults).live.telemetry
        parallel = spine_run("spcube", faults, parallelism=2).live.telemetry
        assert parallel.prometheus_text() == serial.prometheus_text() != ""


def test_telemetry_off_by_default():
    """A cluster has exactly one observer field, and it is off: nothing
    to pay, nothing recorded."""
    observers = [
        field.name for field in dataclasses.fields(ClusterConfig)
        if field.name in ("tracer", "telemetry", "lineage", "watchdog")
    ]
    assert observers == ["tracer"]
    assert ClusterConfig().tracer is None
