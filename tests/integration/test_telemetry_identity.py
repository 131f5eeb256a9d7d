"""Tracing is observation-only, and its derived metrics are deterministic:
named cases of the differential harness (``tests/test_differential.py``),
which compares telemetry exposition across task orders in every case."""

import dataclasses

import pytest

from repro.mapreduce import ClusterConfig

from ..test_differential import (
    ENGINE_NAMES,
    Case,
    assert_tracing_changes_nothing,
    check_case,
)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_telemetry_does_not_change_serial_runs(engine_name):
    assert_tracing_changes_nothing(Case("binomial", "count", engine_name))


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_telemetry_does_not_change_parallel_runs(engine_name):
    assert_tracing_changes_nothing(Case("binomial", "count", engine_name, "parallel"))


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_sim_samples_identical_serial_vs_parallel(engine_name):
    check_case(Case("binomial", "count", engine_name, "parallel"))


def test_sim_samples_identical_under_faults():
    """Crash-retry chains and a resumed round count the same too."""
    for faults in ("task-faults", "node-loss"):
        check_case(Case("binomial", "count", "spcube", "parallel", faults))


def test_telemetry_off_by_default():
    """A cluster has exactly one observer field, and it is off: nothing
    to pay, nothing recorded."""
    observers = [
        field.name for field in dataclasses.fields(ClusterConfig)
        if field.name in ("tracer", "telemetry", "lineage", "watchdog")
    ]
    assert observers == ["tracer"]
    assert ClusterConfig().tracer is None
