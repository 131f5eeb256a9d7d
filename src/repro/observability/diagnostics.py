"""Sketch-quality and load-balance diagnostics — the "cube doctor".

SP-Cube's performance rests on two *predictions* the SP-Sketch makes in
round 1: which c-groups are skewed (sample count above ``beta`` implies
true size above ``m``), and where to cut each cuboid so the ``k`` range
partitions carry near-equal load (Proposition 4.2).  Execution traces
show what the cluster *did*; this module measures whether the
sketch's predictions *held* for a concrete dataset:

* :func:`audit_sketch` — compares a built sketch against exact ground
  truth computed from the relation: per-cuboid skew-classification
  confusion (precision / recall / F1 against the true ``> m`` threshold),
  partition-balance statistics (max/mean load vs the ideal ``n/k``, Gini
  coefficient), and empirical verification of the Section 4.2 Chernoff
  bounds via :mod:`repro.theory.bounds`.  The audit is one JSON-able
  dict; :func:`audit_problems` reads its *problems* — high-confidence
  misclassifications and out-of-band imbalance — which is how a
  corrupted or badly sampled sketch is caught.

* :func:`run_doctor` / :func:`format_doctor_markdown` — the ``doctor``
  CLI's engine: sweeps both synthetic generators over their skew knobs,
  audits SP-Cube's sketch on each dataset, runs the requested engines
  side by side, and emits one JSON-able report (plus a markdown
  rendering) with a ``problems`` list and a ``healthy`` verdict.  Its
  per-reducer load attribution is read from SP-Cube's ``debug`` trace:
  the :class:`~repro.observability.watchdog.Watchdog` holds the sketch's
  predicted loads (:func:`repro.core.planner.replay_routing`) against
  the delivered ones, and the flow edges break each reducer's records
  down by cuboid.  In a fault-free run the two sides match record for
  record; a mismatch localizes routing drift to a reducer.

Everything here is read-only over relations, sketches and traces — the
doctor never influences the run it diagnoses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import os
import tempfile

from ..aggregates import Count
from ..analysis import format_markdown_table, paper_cluster
from ..core.partition import partition_loads
from ..datagen import gen_binomial, gen_zipf
from ..engines import ENGINE_NAMES, load_engines
from ..relation.lattice import all_cuboids, ordered
from ..serving import CubeStore, estimate_cube_bytes
from ..theory.bounds import (
    expected_false_negatives,
    expected_false_positives,
    false_negative_probability,
    false_positive_probability,
    load_band,
    planned_traffic,
    worst_case_traffic,
)
from .explain import LineageIndex
from .tracer import Tracer
from .watchdog import Watchdog

#: A misclassification whose Chernoff tail is below this is "confident":
#: the theory says it essentially cannot happen by sampling luck, so its
#: presence indicates a corrupted sketch (or a broken builder).
CONFIDENT_MISS_PROBABILITY = 0.05

#: Partition-load tolerance: flag a cuboid when its heaviest partition
#: (excluding skewed groups, as Prop 4.2(2) does) exceeds this multiple
#: of the proposition's promise.  Exact elements guarantee at most
#: ``n/k + m`` tuples per partition: consecutive elements are ``n/k``
#: positions apart in the sorted cuboid (skewed tuples included — that
#: is how Definition 4.1 cuts), and one non-skewed group of up to ``m``
#: tuples may straddle a boundary.  2x the promise leaves room for
#: sampled-quantile error without masking genuinely broken elements.
BALANCE_TOLERANCE = 2.0

#: Absolute slack on observed-vs-expected misclassification counts: the
#: expectation bounds are means, so a handful of extra hits is noise.
COUNT_SLACK = 2.0


def _gini(loads: Sequence[int]) -> float:
    """Gini coefficient of a load vector (0 = perfectly even)."""
    n = len(loads)
    total = sum(loads)
    if n == 0 or total == 0:
        return 0.0
    ordered = sorted(loads)
    weighted = sum((index + 1) * load for index, load in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def confusion_stats(
    true_positives: int = 0, false_positives: int = 0,
    false_negatives: int = 0,
) -> Dict:
    """Skew-classification outcome of one cuboid (or the whole sketch)."""
    predicted = true_positives + false_positives
    actual = true_positives + false_negatives
    precision = true_positives / predicted if predicted else 1.0
    recall = true_positives / actual if actual else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) else 0.0
    )
    return {
        "true_positives": true_positives,
        "false_positives": false_positives,
        "false_negatives": false_negatives,
        "precision": round(precision, 4),
        "recall": round(recall, 4),
        "f1": round(f1, 4),
    }


def balance_stats(loads: List[int], ideal: float, promised: float) -> Dict:
    """Partition-load statistics of one cuboid, skewed groups excluded.

    ``ideal`` is the fair share ``total / k`` of the cuboid's non-skewed
    mass; ``promised`` is Prop 4.2(2)'s ``n/k + m`` per-partition bound
    for exact elements (see :data:`BALANCE_TOLERANCE`).
    """
    max_load = max(loads) if loads else 0
    return {
        "loads": list(loads),
        "ideal": round(ideal, 2),
        "promised": round(promised, 2),
        "max_load": max_load,
        "mean_load": round(sum(loads) / len(loads) if loads else 0.0, 2),
        "imbalance": round(max_load / ideal if ideal else 0.0, 3),
        "gini": round(_gini(loads), 4),
    }


def audit_sketch(relation, sketch, memory_records: int) -> Dict:
    """Audit ``sketch`` against exact ground truth from ``relation``.

    ``memory_records`` is the skew threshold ``m`` the sketch was built
    for (``ClusterConfig.derive_memory``); ground truth per cuboid is the
    exact group-size census ``|set(g)| > m``.  Returns a JSON-able dict
    whose ``problems`` are the sketch's own errors (monotonicity, planner
    rejection) followed by :func:`audit_problems`.
    """
    d = relation.schema.num_dimensions
    k = sketch.num_partitions
    n = len(relation)
    # Every tuple projects into every cuboid, so the element spacing of
    # Definition 4.1 promises at most n/k + m tuples per partition
    # (skewed tuples included in the spacing, one group straddling).
    promised = load_band(n, k, memory_records)

    cuboids: Dict[str, Dict] = {}
    overall = [0, 0, 0]  # true positives, false positives, false negatives
    skewed_sizes: List[int] = []
    non_skewed_sizes: List[int] = []
    imbalances: List[float] = []
    ginis: List[float] = []

    for mask in all_cuboids(d):
        sizes = relation.group_sizes(mask)
        truly_skewed = {
            values for values, count in sizes.items()
            if count > memory_records
        }
        predicted = set(sketch.cuboids[mask].skewed)
        missed = truly_skewed - predicted
        outcome = (
            len(predicted & truly_skewed),
            len(predicted - truly_skewed),
            len(missed),
        )
        overall = [a + b for a, b in zip(overall, outcome)]
        skewed_sizes.extend(sizes[values] for values in truly_skewed)
        non_skewed_sizes.extend(
            count for values, count in sizes.items()
            if values not in truly_skewed
        )

        confident_fn = ordered([
            values
            for values in missed
            if false_negative_probability(sizes[values], n, k, memory_records)
            < CONFIDENT_MISS_PROBABILITY
        ])
        confident_fp = ordered([
            values
            for values in predicted - truly_skewed
            if false_positive_probability(
                sizes.get(values, 0), n, k, memory_records
            )
            < CONFIDENT_MISS_PROBABILITY
        ])

        loads = partition_loads(
            relation.rows,
            mask,
            d,
            sketch.cuboids[mask].partition_elements,
            k,
            exclude_groups=truly_skewed,
        )
        ideal = max(sum(loads) / k, 1.0)
        if sum(loads) >= len(loads):
            imbalances.append(max(loads) / ideal)
            ginis.append(_gini(loads))
        cuboids[str(mask)] = {
            "mask": mask,
            "true_skewed": len(truly_skewed),
            "predicted_skewed": len(predicted),
            "confusion": confusion_stats(*outcome),
            "balance": balance_stats(loads, ideal, promised),
            # Misses whose Chernoff tail is below the confident threshold
            # — strong evidence of sketch corruption.
            "confident_false_negatives": [list(v) for v in confident_fn],
            "confident_false_positives": [list(v) for v in confident_fp],
        }

    # A corrupted sketch can be rejected outright by the marking planner
    # (a skewed node above a non-skewed one is impossible for any sample);
    # the audit must survive that and report it, not crash.
    errors: List[str] = []
    try:
        sketch.validate_monotonic()
    except Exception as error:  # SketchError — keep the message only
        errors.append(f"skew monotonicity violated: {error}")
    emitted = 0
    try:
        emitted = planned_traffic(relation, sketch).emitted_tuples
    except Exception as error:
        errors.append(f"marking planner rejects the sketch: {error}")

    worst_case = worst_case_traffic(d, n)
    expected_fn = expected_false_negatives(
        skewed_sizes, n, k, memory_records
    )
    expected_fp = expected_false_positives(
        non_skewed_sizes, n, k, memory_records
    )
    _, observed_fp, observed_fn = overall
    audit = {
        "relation": relation.name,
        "num_rows": n,
        "num_dimensions": d,
        "num_partitions": k,
        "memory_records": memory_records,
        "overall": confusion_stats(*overall),
        "worst_imbalance": round(max(imbalances, default=0.0), 3),
        "mean_gini": round(sum(ginis) / len(ginis) if ginis else 0.0, 4),
        "theory": {
            # Theorem 5.3's ceiling must hold for every relation/sketch.
            "emitted_tuples": emitted,
            "worst_case_bound": worst_case,
            "traffic_within_worst_case": emitted <= worst_case,
            "expected_false_negatives": round(expected_fn, 4),
            "observed_false_negatives": observed_fn,
            "false_negatives_within_bound": (
                observed_fn <= expected_fn + COUNT_SLACK
            ),
            "expected_false_positives": round(expected_fp, 4),
            "observed_false_positives": observed_fp,
            "false_positives_within_bound": (
                observed_fp <= expected_fp + COUNT_SLACK
            ),
        },
        "cuboids": cuboids,
        "sketch": sketch.to_dict(),
    }
    audit["problems"] = errors + audit_problems(audit)
    audit["healthy"] = not audit["problems"]
    return audit


def audit_problems(audit: Dict) -> List[str]:
    """Findings in an :func:`audit_sketch` dict that indicate a bad sketch:
    broken theory bounds, confident misclassifications and partitions
    past :data:`BALANCE_TOLERANCE` times the ``n/k + m`` promise."""
    found: List[str] = []
    theory = audit["theory"]
    if not theory["traffic_within_worst_case"]:
        found.append(
            "planned traffic exceeds the Theorem 5.3 worst case "
            f"({theory['emitted_tuples']} > "
            f"{theory['worst_case_bound']} records)"
        )
    if not theory["false_negatives_within_bound"]:
        found.append(
            f"{theory['observed_false_negatives']} skewed groups "
            "missed where the Chernoff bound expects at most "
            f"{theory['expected_false_negatives']:.2f}"
        )
    if not theory["false_positives_within_bound"]:
        found.append(
            f"{theory['observed_false_positives']} groups wrongly "
            "flagged skewed where the Chernoff bound expects at most "
            f"{theory['expected_false_positives']:.2f}"
        )
    promised = load_band(
        audit["num_rows"], audit["num_partitions"], audit["memory_records"]
    )
    ceiling = BALANCE_TOLERANCE * promised
    for key in sorted(audit["cuboids"], key=int):
        cuboid = audit["cuboids"][key]
        mask = cuboid["mask"]
        for values in cuboid["confident_false_negatives"]:
            found.append(
                f"cuboid {mask:#x}: truly skewed group {tuple(values)!r} "
                "missing from the sketch (miss probability < "
                f"{CONFIDENT_MISS_PROBABILITY})"
            )
        for values in cuboid["confident_false_positives"]:
            found.append(
                f"cuboid {mask:#x}: group {tuple(values)!r} flagged skewed "
                "but far below the memory threshold"
            )
        balance = cuboid["balance"]
        loads = balance["loads"]
        if sum(loads) >= len(loads) and balance["max_load"] > ceiling:
            found.append(
                f"cuboid {mask:#x}: unbalanced partitions — max load "
                f"{balance['max_load']} exceeds "
                f"{BALANCE_TOLERANCE}x the n/k + m promise "
                f"{promised:.0f} (Prop 4.2(2) ceiling {ceiling:.0f})"
            )
    return found


def _attribution(watchdog: Watchdog, lineage: LineageIndex) -> Dict:
    """SP-Cube's round-2 reducer loads, predicted vs traced, read from a
    ``debug`` trace: the watchdog's comparison of the ``sketch`` event's
    prediction with the delivered records, and the flow edges' records
    per (reducer, cuboid) — the skew reducer 0's per skewed cuboid."""
    comparison = watchdog.comparisons["sp-cube"]
    predicted, actual = comparison["predicted"], comparison["observed"]
    job = lineage.jobs[lineage.latest_execution("sp-cube")]
    by_cuboid: Dict[int, Dict[int, int]] = {}
    for flow in job["flows"]:
        masks = by_cuboid.setdefault(flow["reducer"], {})
        for mask, count in flow["cuboids"].items():
            masks[int(mask)] = masks.get(int(mask), 0) + count
    mismatches = [
        [reducer, predicted.get(reducer, 0), actual.get(reducer, 0)]
        for reducer, delta in sorted(comparison["deltas"].items())
        if delta
    ]
    return {
        "num_reducers": job["num_reducers"],
        "predicted": {str(r): c for r, c in sorted(predicted.items())},
        "actual": {str(r): c for r, c in sorted(actual.items())},
        "matches": not mismatches,
        "mismatches": mismatches,
        "by_cuboid": {
            str(r): {str(mask): c for mask, c in sorted(masks.items())}
            for r, masks in sorted(by_cuboid.items())
        },
        "skew_by_cuboid": {
            str(mask): c for mask, c in sorted(by_cuboid.get(0, {}).items())
        },
    }


# -- the doctor driver --------------------------------------------------------


def run_doctor(
    rows: int = 4000,
    machines: int = 8,
    engines: Optional[Sequence[str]] = None,
    binomial_skews: Sequence[float] = (0.1, 0.4),
    zipf_exponents: Sequence[float] = (1.1, 1.6),
    seed: int = 0,
) -> Dict:
    """Run the full diagnostic battery; returns one JSON-able report.

    For every dataset of the binomial and Zipf sweeps: compute the cube
    with SP-Cube traced at ``debug`` into a :class:`Watchdog` and a
    :class:`LineageIndex`, audit its sketch against exact ground truth,
    read the per-reducer load attribution (predicted vs traced) from that
    trace, and run the other requested engines untraced for the
    side-by-side balance and runtime comparison.
    """
    engine_names = list(engines or ENGINE_NAMES)
    if "spcube" not in engine_names:
        # The sketch under audit comes from an SP-Cube run.
        engine_names = ["spcube"] + engine_names
    engine_registry = load_engines(engine_names)

    datasets = [
        (
            f"binomial(p={p:g})",
            lambda p=p, i=i: gen_binomial(rows, p, seed=seed + i),
            {"generator": "binomial", "skew": p},
        )
        for i, p in enumerate(binomial_skews)
    ] + [
        (
            f"zipf(s={s:g})",
            lambda s=s, i=i: gen_zipf(
                rows, exponent=s, seed=seed + 100 + i
            ),
            {"generator": "zipf", "exponent": s},
        )
        for i, s in enumerate(zipf_exponents)
    ]

    report: Dict = {
        "config": {
            "rows": rows,
            "machines": machines,
            "seed": seed,
            "engines": engine_names,
            "binomial_skews": list(binomial_skews),
            "zipf_exponents": list(zipf_exponents),
            "balance_tolerance": BALANCE_TOLERANCE,
        },
        "datasets": [],
        "problems": [],
    }

    for label, make_relation, params in datasets:
        relation = make_relation()
        engine_rows: Dict[str, Dict] = {}
        for name in engine_names:
            cluster = paper_cluster(rows, num_machines=machines)
            if name == "spcube":
                watchdog, lineage = Watchdog(), LineageIndex()
                cluster.tracer = Tracer([watchdog, lineage], level="debug")
            run = engine_registry[name](cluster, Count()).compute(relation)
            if name == "spcube":
                spcube_run = run
            metrics = run.metrics
            engine_rows[name] = {
                "total_seconds": round(metrics.total_seconds, 2),
                "map_output_mb": round(metrics.intermediate_bytes / 1e6, 3),
                "reducer_balance": round(metrics.reducer_balance, 3),
                "failed": metrics.failed,
            }

        memory = paper_cluster(rows, num_machines=machines).derive_memory(
            len(relation)
        )
        audit = audit_sketch(relation, spcube_run.sketch, memory)
        attribution = _attribution(watchdog, lineage)

        # Serving-store footprint: persist the SP-Cube result to a
        # scratch store and compare bytes on disk against the resident
        # cube, so store-format bloat (or a broken compression ratio)
        # surfaces in the same report as sketch quality.
        cube = spcube_run.cube
        in_memory_bytes = estimate_cube_bytes(cube)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "doctor.store")
            store_bytes = CubeStore.write(cube, store_path, aggregate="count")
        report["datasets"].append({
            "name": label,
            "params": params,
            "engines": engine_rows,
            "audit": audit,
            "attribution": attribution,
            "store": {
                "groups": cube.num_groups,
                "in_memory_bytes": in_memory_bytes,
                "store_bytes": store_bytes,
                "ratio": round(
                    store_bytes / in_memory_bytes if in_memory_bytes else 0.0,
                    4,
                ),
            },
        })

        for problem in audit["problems"]:
            report["problems"].append(f"{label}: {problem}")
        if not attribution["matches"]:
            report["problems"].append(
                f"{label}: traced reducer loads diverge from the "
                f"sketch's routing at {attribution['mismatches'][:3]}"
            )

    report["healthy"] = not report["problems"]
    return report


def format_doctor_markdown(report: Dict) -> str:
    """Render a doctor report as a markdown document."""
    config = report["config"]
    lines = [
        "# Cube doctor report",
        "",
        f"Workloads of {config['rows']} rows on {config['machines']} "
        f"machines (seed {config['seed']}); engines: "
        f"{', '.join(config['engines'])}.",
        "",
        "## Sketch accuracy",
        "",
    ]
    accuracy_rows = []
    for entry in report["datasets"]:
        audit = entry["audit"]
        overall = audit["overall"]
        theory = audit["theory"]
        accuracy_rows.append(
            [
                entry["name"],
                str(overall["true_positives"] + overall["false_negatives"]),
                f"{overall['precision']:.3f}",
                f"{overall['recall']:.3f}",
                f"{overall['f1']:.3f}",
                f"{audit['worst_imbalance']:.2f}x",
                f"{audit['mean_gini']:.3f}",
                "yes" if theory["false_negatives_within_bound"]
                and theory["false_positives_within_bound"] else "NO",
            ]
        )
    lines.append(
        format_markdown_table(
            [
                "dataset", "true skewed", "precision", "recall", "F1",
                "worst imbalance", "mean Gini", "bounds hold",
            ],
            accuracy_rows,
        )
    )

    lines += ["", "## Reducer load attribution (SP-Cube)", ""]
    attribution_rows = []
    for entry in report["datasets"]:
        attribution = entry["attribution"]
        predicted = attribution["predicted"]
        skew = predicted.get("0", 0)
        ranged = sum(c for r, c in predicted.items() if r != "0")
        attribution_rows.append(
            [
                entry["name"],
                str(skew),
                str(ranged),
                "yes" if attribution["matches"] else "NO",
            ]
        )
    lines.append(
        format_markdown_table(
            ["dataset", "skew records (r0)", "ranged records",
             "trace matches"],
            attribution_rows,
        )
    )

    lines += ["", "## Engines side by side", ""]
    engine_rows = []
    for entry in report["datasets"]:
        for name, stats in entry["engines"].items():
            engine_rows.append(
                [
                    entry["name"],
                    name,
                    f"{stats['total_seconds']:.1f}",
                    f"{stats['map_output_mb']:.2f}",
                    f"{stats['reducer_balance']:.2f}",
                    "FAIL" if stats["failed"] else "ok",
                ]
            )
    lines.append(
        format_markdown_table(
            ["dataset", "engine", "time (s)", "map out (MB)",
             "max/mean reducer", "status"],
            engine_rows,
        )
    )

    # Reports written before the serving layer lack the store section;
    # render it only when every entry carries one.
    store_rows = [
        [
            entry["name"],
            str(entry["store"]["groups"]),
            f"{entry['store']['in_memory_bytes'] / 1e6:.2f}",
            f"{entry['store']['store_bytes'] / 1e6:.2f}",
            f"{entry['store']['ratio']:.3f}",
        ]
        for entry in report["datasets"]
        if "store" in entry
    ]
    if store_rows:
        lines += ["", "## Store footprint (SP-Cube)", ""]
        lines.append(
            format_markdown_table(
                ["dataset", "c-groups", "in-memory (MB)", "store (MB)",
                 "store/memory"],
                store_rows,
            )
        )

    lines += ["", "## Verdict", ""]
    if report["healthy"]:
        lines.append("All checks passed — the sketch predicts this data.")
    else:
        lines.append(f"{len(report['problems'])} problem(s) found:")
        lines.append("")
        for problem in report["problems"]:
            lines.append(f"- {problem}")
    return "\n".join(lines) + "\n"
