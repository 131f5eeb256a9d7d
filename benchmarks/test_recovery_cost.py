"""Figure-6a-style recovery-cost sweep: fault pressure vs running time.

The paper's Figure 6a charts running time against the skewness knob; this
bench charts it against *fault pressure* instead — the per-attempt
crash/straggle probability — holding the workload fixed.  For each engine
and each pressure point it runs the gen-zipf workload under a seeded
:class:`~repro.mapreduce.faults.FaultPlan` (per-run seeds derived via
:func:`repro.analysis.runner.derive_fault_seed`, so points are
statistically independent) and records the fault-tolerance counters plus
the exact recovery overhead ``RunMetrics.recovery_overhead()`` — time
lost to killed attempts, crash detection, backoffs and residual
straggle, counted once per chain on its winning attempt.

A second sweep charts *node* pressure: the per-(node, round) kill
probability on a three-node cluster, run twice per point — once with
round checkpointing enabled (the run resumes on replacement nodes) and
once with it disabled (the first node loss aborts the run).  The same
seeded coins fire in both modes, so each pair isolates exactly what the
checkpoint layer buys.

Results land in ``BENCH_recovery.json`` at the repo root (the crash
sweep fills ``points``, the node sweep ``node_points``) and in
``benchmarks/results/recovery_cost.txt`` /
``benchmarks/results/node_recovery_cost.txt`` as the tables
:func:`repro.analysis.format_recovery_tables` renders.

``BENCH_recovery.json`` is a golden file: every number in it is
simulated, so it is a pure function of the code and of the two
constants below, and a run rewrites it byte-identically.  CI's gate is
this module followed by ``git diff --exit-code BENCH_recovery.json``; a
cost-model change shows up as a reviewed diff of the file.
"""

import json
import pathlib

from repro.analysis.runner import derive_fault_seed
from repro.analysis import format_recovery_tables, paper_cluster
from repro.datagen import gen_zipf
from repro.mapreduce.faults import FaultPlan

from conftest import PAPER_ALGORITHMS, write_result

ROWS = 6000
BASE_SEED = 1337
#: Fault pressure axis: per-attempt crash AND straggle probability.
PRESSURES = [0.0, 0.05, 0.1, 0.2]
#: Node pressure axis: per-(node, round) kill probability.
NODE_PRESSURES = [0.0, 0.25, 0.5]
#: Failure domains for the node sweep (machines spread round-robin).
NUM_NODES = 3
RESULT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
)


def _merge_result(**updates):
    """Read-modify-write ``BENCH_recovery.json`` so the crash sweep and
    the node sweep can each run alone without clobbering the other's
    section.  A stale artifact from a different workload is discarded."""
    data = {"rows": ROWS, "base_seed": BASE_SEED}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except ValueError:
            existing = {}
        if (
            existing.get("rows") == ROWS
            and existing.get("base_seed") == BASE_SEED
        ):
            data = existing
    data.update(updates)
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"[written to {RESULT_PATH}]")


def _run_point(name, factory, relation, pressure):
    fault_plan = None
    if pressure > 0.0:
        fault_plan = FaultPlan(
            seed=derive_fault_seed(BASE_SEED, name, pressure),
            crash_prob=pressure,
            straggle_prob=pressure,
        )
    cluster = paper_cluster(len(relation), fault_plan=fault_plan)
    metrics = factory(cluster).compute(relation).metrics
    return {
        "engine": name,
        "pressure": pressure,
        "total_seconds": round(metrics.total_seconds, 3),
        "attempts": metrics.attempts,
        "killed_tasks": metrics.killed_tasks,
        "speculative_wins": metrics.speculative_wins,
        "recovered": metrics.recovered,
        "recovery_overhead_seconds": round(metrics.recovery_overhead(), 3),
        "failed": metrics.failed,
    }


def crash_sweep(relation):
    """One row per (engine, pressure), ``slowdown`` against the engine's
    own fault-free point (``PRESSURES[0]``) included."""
    rows = []
    for name, factory in PAPER_ALGORITHMS.items():
        points = [
            _run_point(name, factory, relation, pressure)
            for pressure in PRESSURES
        ]
        baseline = points[0]["total_seconds"]
        for row in points:
            row["slowdown"] = round(
                row["total_seconds"] / baseline if baseline else float("nan"),
                3,
            )
        rows.extend(points)
    return rows


def test_recovery_cost_sweep():
    rows = crash_sweep(gen_zipf(ROWS, seed=9))

    by_engine = {}
    for row in rows:
        by_engine.setdefault(row["engine"], {})[row["pressure"]] = row

    table = format_recovery_tables({"points": rows})["points"]
    title = (
        f"recovery cost vs fault pressure — gen-zipf, n={ROWS}, "
        f"seed base {BASE_SEED}"
    )
    write_result("recovery_cost", f"{title}\n\n{table}")
    _merge_result(points=rows)

    for name, points in by_engine.items():
        clean = points[0.0]
        assert clean["attempts"] > 0
        assert clean["recovery_overhead_seconds"] == 0.0, name
        assert clean["killed_tasks"] == 0, name
        # Recovery overhead is summed *machine* time across chains —
        # chains recover concurrently, so it may exceed the simulated
        # wall time; the invariant is that pressure produces extra
        # attempts and a strictly positive, finite overhead.
        for pressure in PRESSURES[1:]:
            row = points[pressure]
            if row["failed"]:
                continue
            assert row["attempts"] > clean["attempts"], (name, pressure)
            assert 0.0 < row["recovery_overhead_seconds"], (name, pressure)


def _run_node_point(name, factory, relation, pressure, checkpointed):
    fault_plan = None
    if pressure > 0.0:
        fault_plan = FaultPlan(
            seed=derive_fault_seed(BASE_SEED, "node:" + name, pressure),
            node_crash_prob=pressure,
        )
    cluster = paper_cluster(
        len(relation),
        fault_plan=fault_plan,
        num_nodes=NUM_NODES,
        checkpoint=checkpointed,
    )
    metrics = factory(cluster).compute(relation).metrics
    return {
        "engine": name,
        "node_pressure": pressure,
        "checkpointed": checkpointed,
        "total_seconds": round(metrics.total_seconds, 3),
        "nodes_lost": metrics.nodes_lost,
        "resumed_rounds": metrics.resumed_rounds,
        "recovery_overhead_seconds": round(metrics.recovery_overhead(), 3),
        "completed": not metrics.aborted,
        "failed": metrics.failed,
    }


def node_sweep(relation):
    """One row per (engine, node pressure, checkpointed?)."""
    return [
        _run_node_point(name, factory, relation, pressure, checkpointed)
        for name, factory in PAPER_ALGORITHMS.items()
        for pressure in NODE_PRESSURES
        for checkpointed in (True, False)
    ]


def test_node_pressure_checkpoint_vs_abort():
    rows = node_sweep(gen_zipf(ROWS, seed=9))

    by_key = {
        (row["engine"], row["node_pressure"], row["checkpointed"]): row
        for row in rows
    }

    table = format_recovery_tables({"node_points": rows})["node_points"]
    title = (
        f"node loss: checkpoint-resume vs abort-restart — gen-zipf, "
        f"n={ROWS}, {NUM_NODES} nodes, seed base {BASE_SEED}"
    )
    write_result("node_recovery_cost", f"{title}\n\n{table}")
    _merge_result(node_points=rows)

    any_kill_fired = False
    for name in PAPER_ALGORITHMS:
        for checkpointed in (True, False):
            calm = by_key[(name, 0.0, checkpointed)]
            assert calm["completed"], (name, checkpointed)
            assert calm["nodes_lost"] == 0, (name, checkpointed)
            assert calm["resumed_rounds"] == 0, (name, checkpointed)
        for pressure in NODE_PRESSURES[1:]:
            ckpt = by_key[(name, pressure, True)]
            abort = by_key[(name, pressure, False)]
            # Same seed, same coins: both modes see the same kill schedule
            # up to the first loss.
            if ckpt["nodes_lost"] == 0:
                continue
            any_kill_fired = True
            assert ckpt["completed"], (name, pressure)
            assert ckpt["resumed_rounds"] >= 1, (name, pressure)
            assert abort["nodes_lost"] >= 1, (name, pressure)
            assert not abort["completed"], (name, pressure)
            assert abort["resumed_rounds"] == 0, (name, pressure)
    # The sweep is vacuous unless at least one seeded kill fires.
    assert any_kill_fired
