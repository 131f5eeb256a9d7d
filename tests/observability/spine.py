"""The spine matrix: engine × fault mode × backend, traced at ``debug``
with every derivation attached live.  Runs are cached so the identity
suites share them instead of re-running the engines."""

import json
from dataclasses import asdict
from functools import lru_cache
from types import SimpleNamespace

from repro.datagen import gen_binomial
from repro.engines import ENGINE_NAMES, load_engines
from repro.mapreduce import ClusterConfig, CostModel, FaultPlan, FaultSpec
from repro.mapreduce.faults import NodeFaultSpec
from repro.observability import (
    LineageIndex,
    MemorySink,
    Telemetry,
    Tracer,
    Watchdog,
)

ENGINES = load_engines(ENGINE_NAMES)

#: Fault mode -> the plan injected (``None`` = a healthy cluster).
FAULTS = {
    "clean": lambda: None,
    # Every job: map task 0 crashes once, reduce task 0 straggles into a
    # speculative backup.
    "task-faults": lambda: FaultPlan([
        FaultSpec("crash", phase="map", task=0),
        FaultSpec("straggle", phase="reduce", task=0),
    ]),
    # Node 1 dies 26 simulated seconds into the run: mid-reduce of the
    # cube round for the one- and two-round engines (finished partitions
    # are salvaged), between placement waves for the others.  Either way
    # the checkpoint layer resumes the round.
    "node-loss": lambda: FaultPlan(
        node_specs=[NodeFaultSpec(node=1, at_seconds=26.0)]
    ),
}

#: JobMetrics fields describing the backend, not the simulation.
BACKEND_FIELDS = (
    "executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds",
)


@lru_cache(maxsize=None)
def relation():
    return gen_binomial(400, 0.3, seed=9)


def cluster(faults="clean", parallelism=None, tracer=None):
    return ClusterConfig(
        num_machines=4,
        num_nodes=2,
        memory_records=64,
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=FAULTS[faults](),
        parallelism=parallelism,
        tracer=tracer,
    )


@lru_cache(maxsize=None)
def untraced_run(engine, faults="clean", parallelism=None):
    return ENGINES[engine](cluster(faults, parallelism)).compute(relation())


@lru_cache(maxsize=None)
def spine_run(engine, faults="clean", parallelism=None):
    """One traced run: the cube run, its records, their JSONL text and
    the derivations that rode along as live sinks."""
    live = SimpleNamespace(
        before=MemorySink(), watchdog=Watchdog(), telemetry=Telemetry(),
        lineage=LineageIndex(), after=MemorySink(),
    )
    tracer = Tracer(list(vars(live).values()), level="debug")
    run = ENGINES[engine](
        cluster(faults, parallelism, tracer)
    ).compute(relation())
    records = live.after.records
    text = "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    )
    return SimpleNamespace(run=run, records=records, text=text, live=live)


def simulation(run):
    """Everything a run computed, minus the backend's host-side fields."""
    jobs = []
    for job in run.metrics.jobs:
        fields = asdict(job)
        for name in BACKEND_FIELDS:
            del fields[name]
        jobs.append(fields)
    return (
        sorted(run.cube.items(), key=repr), jobs, run.metrics.extras,
        run.metrics.output_groups,
    )
