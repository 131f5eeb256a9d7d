"""Every simulated-clock result of the reproduction, written once.

    python benchmarks/golden.py

runs each sweep defined below and writes two golden files at the repo
root:

* ``BENCH_figures.json`` — Figures 4-8 of the paper's evaluation (one
  point per (x, engine)), the five Section 5.2 theory runs and the
  ablations of SP-Cube's mechanisms;
* ``BENCH_recovery.json`` — the crash-pressure sweep (``points``) and the
  node-loss sweep with and without round checkpointing
  (``node_points``).

It then re-renders every EXPERIMENTS.md table between its
``<!-- BEGIN name -->`` / ``<!-- END name -->`` markers through
:func:`repro.analysis.golden_tables`.

Every number is simulated (the cost model's clock, not the host's), so
each file is a pure function of the code and of the constants here: a
second run rewrites all three files byte-identically, and CI's
``golden`` job fails on any diff.  A cost-model change shows up as a
reviewed diff of the files.  Tier-1 tests assert the paper's shapes over
the committed files and run each sweep at a few hundred rows to pin it
as a pure function of its input.

Scale: the paper's x-axes are 10^7-10^8 tuples on a physical 20-machine
cluster; the sweeps run the same workloads at 10^3-10^4 rows on the
simulated cluster with JVM-calibrated memory (``paper_cluster``), so
shapes, not absolute numbers, are the reproduction target.
"""

import json
import math
import pathlib
import sys
import zlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402
    METRICS,
    fill_marked_tables,
    golden_tables,
    paper_cluster,
    run_sweep,
)
from repro.analysis.runner import derive_fault_seed  # noqa: E402
from repro.baselines import HiveCube, MRCube, NaiveCube  # noqa: E402
from repro.core import SPCube, build_exact_sketch  # noqa: E402
from repro.datagen import (  # noqa: E402
    USAGOV_CUBE_DIMENSIONS,
    adversarial_memory,
    adversarial_relation,
    expected_emissions_per_tuple,
    gen_binomial,
    gen_zipf,
    project_to_dimensions,
    usagov_clicks,
    wikipedia_traffic,
)
from repro.mapreduce import relation_bytes  # noqa: E402
from repro.mapreduce.faults import FaultPlan  # noqa: E402
from repro.theory import (  # noqa: E402
    independent_traffic_bound,
    is_skewness_monotonic,
    monotonic_traffic_bound,
    monotonicity_violations,
    planned_traffic,
    worst_case_traffic,
)

FIGURES_PATH = ROOT / "BENCH_figures.json"
RECOVERY_PATH = ROOT / "BENCH_recovery.json"
EXPERIMENTS_PATH = ROOT / "EXPERIMENTS.md"

#: The paper's three contenders, as factories over a cluster config.
PAPER_ALGORITHMS = {
    "Pig": lambda cluster: MRCube(cluster),
    "Hive": lambda cluster: HiveCube(cluster),
    "SP-Cube": lambda cluster: SPCube(cluster),
}


# -- Figures 4-8 ---------------------------------------------------------------


def _usagov_cube_input(n, seed):
    return project_to_dimensions(
        usagov_clicks(n, seed=seed), USAGOV_CUBE_DIMENSIONS
    )


def _sizes(generator, sizes, seed):
    """A size sweep: point ``i`` is ``generator(n_i, seed + i)``."""
    return lambda scale: [
        (n // scale, generator(n // scale, seed=seed + i))
        for i, n in enumerate(sizes)
    ]


#: Figure -> (x label, its three panels' metrics, workloads(scale)).
#: ``scale`` divides every row count (1 for the golden file).
FIGURES = {
    # Wikipedia traffic statistics: SP-Cube fastest, least map output.
    "4": ("tuples",
          ("total_seconds", "avg_reduce_seconds", "map_output_bytes"),
          _sizes(wikipedia_traffic, (5_000, 10_000, 20_000, 40_000), 400)),
    # USAGOV click logs, cube on 4 of the 15 dimensions.
    "5": ("tuples",
          ("total_seconds", "avg_map_seconds", "sketch_bytes"),
          _sizes(_usagov_cube_input, (1_000, 3_000, 10_000, 30_000), 500)),
    # gen-binomial at fixed n, varying skewness p: Hive stuck at p >= 0.4.
    "6": ("p%",
          ("total_seconds", "map_output_bytes", "sketch_bytes"),
          lambda scale: [
              (p, gen_binomial(30_000 // scale, p / 100, seed=600))
              for p in (0, 10, 25, 40, 60, 75)
          ]),
    # gen-zipf: two Zipf(1000, 1.1) and two uniform(1000) dimensions.
    "7": ("tuples",
          ("total_seconds", "avg_reduce_seconds", "map_output_bytes"),
          _sizes(gen_zipf, (2_000, 6_000, 15_000, 40_000), 700)),
    # (appendix) gen-binomial at the paper's fixed p = 0.1, varying n.
    "8": ("tuples",
          ("total_seconds", "avg_map_seconds", "map_output_bytes"),
          _sizes(lambda n, seed: gen_binomial(n, 0.1, seed=seed),
                 (2_000, 6_000, 15_000, 40_000), 800)),
}


def figure(key, scale=1):
    """One figure's sweep: the inputs' sizes and one point per
    (x, engine) holding the figure's panel metrics and ``failed``."""
    x_label, panels, workloads = FIGURES[key]
    workloads = workloads(scale)
    cluster = paper_cluster(max(len(relation) for _x, relation in workloads))
    sweep = run_sweep(workloads, PAPER_ALGORITHMS, cluster)
    points = []
    for point in sweep.points:
        for engine, metrics in point.runs.items():
            row = {"x": point.x, "engine": engine}
            for name in panels:
                value = METRICS[name](metrics)
                row[name] = (
                    round(value, 3) if isinstance(value, float) else value
                )
            row["failed"] = metrics.failed
            points.append(row)
    return {
        "x_label": x_label,
        "inputs": [
            {"x": x, "rows": len(relation),
             "bytes": relation_bytes(relation.rows)[1]}
            for x, relation in workloads
        ],
        "points": points,
    }


# -- Section 5.2 theory --------------------------------------------------------


def _traffic_row(claim, input_name, relation, sketch, m, bound, **detail):
    plan = planned_traffic(relation, sketch)
    return {
        "claim": claim,
        "input": input_name,
        "d": relation.schema.num_dimensions,
        "n": len(relation),
        "m": m,
        "emissions_per_tuple": round(plan.emissions_per_tuple, 3),
        "records": plan.emitted_tuples,
        "record_bound": bound,
        **detail,
    }


def theory(scale=1):
    """The five Section 5.2 runs, one row each: planned round-2 traffic
    against the bound the claim proves (Prop 5.2 measures the skew
    reducer's partial-aggregate input of a real run instead)."""
    rows = []

    # Thm 5.3: the adversarial relation forces C(d, d/2+1) emissions.
    d, n = 6, 8_000 // scale
    relation = adversarial_relation(d, n, seed=1)
    m = adversarial_memory(d, n)
    sketch = build_exact_sketch(relation, num_partitions=8, memory_records=m)
    rows.append(_traffic_row(
        "Thm 5.3", "adversarial", relation, sketch, m,
        worst_case_traffic(d, n),
        predicted_per_tuple=expected_emissions_per_tuple(d),
    ))

    # Prop 5.5: skewness-monotonic data (gen-binomial's planted rows are
    # identical on every dimension) ships O(d) emissions per tuple.
    n = 20_000 // scale
    relation = gen_binomial(n, 0.4, seed=2)
    cluster = paper_cluster(n)
    m = cluster.derive_memory(n)
    sketch = build_exact_sketch(relation, cluster.num_machines, m)
    rows.append(_traffic_row(
        "Prop 5.5", "gen-binomial p=0.4", relation, sketch, m,
        monotonic_traffic_bound(relation.schema.num_dimensions, n),
        monotonic=is_skewness_monotonic(relation, m),
    ))

    # Prop 5.6: independent attributes break monotonicity, yet traffic
    # stays within O(d^2) per tuple.
    relation = gen_zipf(n, seed=2)
    sketch = build_exact_sketch(relation, cluster.num_machines, m)
    rows.append(_traffic_row(
        "Prop 5.6", "gen-zipf", relation, sketch, m,
        independent_traffic_bound(relation.schema.num_dimensions, n),
        violations=len(monotonicity_violations(relation, m)),
    ))

    # Prop 5.2: partial aggregates of skewed groups ship O(d n) records,
    # at most one state per skewed group per mapper.
    relation = wikipedia_traffic(n, seed=3)
    metrics = SPCube(cluster).compute(relation).metrics
    skewed = int(metrics.extras["num_skewed_groups"])
    rows.append({
        "claim": "Prop 5.2",
        "input": "wikipedia",
        "d": relation.schema.num_dimensions,
        "n": n,
        "m": m,
        "emissions_per_tuple": None,
        "records": metrics.jobs[-1].reduce_tasks[0].records_in,
        "record_bound": cluster.num_machines * skewed,
        "skewed_groups": skewed,
    })

    # The paper's closing observation: real data sits far from the
    # worst case.
    relation = wikipedia_traffic(n, seed=4)
    sketch = build_exact_sketch(relation, cluster.num_machines, m)
    d = relation.schema.num_dimensions
    rows.append(_traffic_row(
        "real data", "wikipedia", relation, sketch, m,
        worst_case_traffic(d, n), naive_per_tuple=1 << d,
    ))
    return rows


# -- ablations -----------------------------------------------------------------

#: Each variant disables one SP-Cube mechanism (DESIGN.md "Ablations").
ABLATION_VARIANTS = {
    "full SP-Cube": {},
    "no map partial agg": {"map_partial_aggregation": False},
    "no ancestor covering": {"ancestor_covering": False},
    "hash partitioning": {"range_partitioning": False},
    "exact sketch": {"use_exact_sketch": True},
}
ABLATION_ROWS = 20_000
ABLATION_P = 0.4
#: beta = scale * ln(n k); 1.0 is the paper's threshold.
BETA_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


def _cube_crc32(cube):
    return zlib.crc32(repr(sorted(cube.items())).encode("utf-8"))


def ablations(rows=ABLATION_ROWS):
    """The variant grid, the beta sweep and combiners alone, all on
    gen-binomial at ``p = ABLATION_P``."""
    workload = gen_binomial(rows, ABLATION_P, seed=900)
    cluster = paper_cluster(rows)
    grid = []
    full = None
    for variant, options in ABLATION_VARIANTS.items():
        run = SPCube(cluster, **options).compute(workload)
        full = full or run.metrics
        grid.append({
            "variant": variant,
            "total_seconds": round(run.metrics.total_seconds, 3),
            "intermediate_bytes": run.metrics.intermediate_bytes,
            "intermediate_records": run.metrics.intermediate_records,
            "reducer_balance": round(run.metrics.reducer_balance, 3),
            "max_reducer_input_records":
                run.metrics.jobs[-1].max_reducer_input_records,
            "cube_crc32": _cube_crc32(run.cube),
        })

    truth = build_exact_sketch(
        workload, cluster.num_machines, cluster.derive_memory(rows)
    )
    true_skews = {(mask, values) for mask, values, _ in truth.skewed_groups()}
    beta = []
    for scale in BETA_SCALES:
        value = scale * math.log(rows * cluster.num_machines)
        sketch = SPCube(cluster, beta=value).compute(workload).sketch
        detected = {
            (mask, values) for mask, values, _ in sketch.skewed_groups()
        }
        beta.append({
            "scale": scale,
            "beta": round(value, 3),
            "recall": round(
                len(detected & true_skews) / len(true_skews)
                if true_skews else 1.0, 4,
            ),
            "sketch_bytes": sketch.to_dict()["serialized_bytes"],
        })

    combiner = [
        {"engine": engine,
         "intermediate_records":
             NaiveCube(cluster, use_combiner=use_combiner)
             .compute(workload).metrics.intermediate_records}
        for engine, use_combiner in (("naive", False),
                                     ("naive + combiner", True))
    ]
    combiner.append({"engine": "SP-Cube",
                     "intermediate_records": full.intermediate_records})
    return {"rows": rows, "p": ABLATION_P, "grid": grid, "beta": beta,
            "combiner": combiner}


# -- recovery cost under faults ------------------------------------------------

#: gen-zipf rows of both recovery sweeps, and the base of their
#: per-run fault seeds (``derive_fault_seed``).
RECOVERY_ROWS = 6000
BASE_SEED = 1337
#: Fault pressure axis: per-attempt crash AND straggle probability.
PRESSURES = [0.0, 0.05, 0.1, 0.2]
#: Node pressure axis: per-(node, round) kill probability.
NODE_PRESSURES = [0.0, 0.25, 0.5]
#: Failure domains for the node sweep (machines spread round-robin).
NUM_NODES = 3


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
    own fault-free point (``PRESSURES[0]``) included.  Recovery overhead
    is the exact ``RunMetrics.recovery_overhead()``: time lost to killed
    attempts, crash detection, backoffs and residual straggle, counted
    once per chain on its winning attempt."""
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
    """One row per (engine, node pressure, checkpointed?): the same
    seeded coins fire in both modes, so each pair isolates what round
    checkpointing buys."""
    return [
        _run_node_point(name, factory, relation, pressure, checkpointed)
        for name, factory in PAPER_ALGORITHMS.items()
        for pressure in NODE_PRESSURES
        for checkpointed in (True, False)
    ]


# -- the one writer ------------------------------------------------------------


def _write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return json.loads(path.read_text())


def main():
    figures = _write_json(FIGURES_PATH, {
        "figures": {key: figure(key) for key in FIGURES},
        "theory": theory(),
        "ablations": ablations(),
    })
    relation = gen_zipf(RECOVERY_ROWS, seed=9)
    recovery = _write_json(RECOVERY_PATH, {
        "rows": RECOVERY_ROWS,
        "base_seed": BASE_SEED,
        "points": crash_sweep(relation),
        "node_points": node_sweep(relation),
    })
    EXPERIMENTS_PATH.write_text(fill_marked_tables(
        EXPERIMENTS_PATH.read_text(), golden_tables(figures, recovery)
    ))
    for path in (FIGURES_PATH, RECOVERY_PATH, EXPERIMENTS_PATH):
        print(f"[written to {path.relative_to(ROOT)}]")


if __name__ == "__main__":
    main()
