"""Sketch-quality and load-balance diagnostics — the "cube doctor".

SP-Cube's performance rests on two *predictions* the SP-Sketch makes in
round 1: which c-groups are skewed (sample count above ``beta`` implies
true size above ``m``), and where to cut each cuboid so the ``k`` range
partitions carry near-equal load (Proposition 4.2).  Execution traces
(PR 3) show what the cluster *did*; this module measures whether the
sketch's predictions *held* for a concrete dataset:

* :func:`audit_sketch` — compares a built sketch against exact ground
  truth computed from the relation: per-cuboid skew-classification
  confusion (precision / recall / F1 against the true ``> m`` threshold),
  partition-balance statistics (max/mean load vs the ideal ``n/k``, Gini
  coefficient), and empirical verification of the Section 4.2 Chernoff
  bounds via :mod:`repro.theory.bounds`.  The audit flags *problems* —
  high-confidence misclassifications and out-of-band imbalance — which is
  how a corrupted or badly sampled sketch is caught.

* :func:`attribute_load` — joins a run's trace with the sketch: the
  per-reducer load is re-derived from the sketch alone (skew flushes to
  reducer 0, range-routed emissions to reducers ``1..k``, broken down by
  cuboid) and diffed against the ``records_in`` the trace recorded.  In
  a fault-free paper-configuration run the two must match record-for-
  record; a mismatch localizes routing drift to a reducer.

* :func:`run_doctor` / :func:`format_doctor_markdown` — the ``doctor``
  CLI's engine: sweeps both synthetic generators over their skew knobs,
  audits SP-Cube's sketch on each dataset, attributes reducer load, runs
  the requested engines side by side, and emits one JSON-able report
  (plus a markdown rendering) with a ``problems`` list and a ``healthy``
  verdict.

Everything here is read-only over relations, sketches and traces — the
doctor never influences the run it diagnoses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import os
import tempfile

from ..aggregates import Count
from ..analysis import format_markdown_table, paper_cluster
from ..core.partition import partition_loads
from ..core.planner import replay_routing
from ..datagen import gen_binomial, gen_zipf
from ..engines import ENGINE_NAMES, load_engines
from ..relation.lattice import all_cuboids
from ..serving import CubeStore, estimate_cube_bytes
from ..theory.bounds import (
    expected_false_negatives,
    expected_false_positives,
    false_negative_probability,
    false_positive_probability,
    planned_traffic,
    worst_case_traffic,
)
from .analyze import TraceAnalysis
from .tracer import MemorySink, Tracer

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


@dataclass
class SkewConfusion:
    """Skew-classification outcome of one cuboid (or the whole sketch)."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def add(self, other: "SkewConfusion") -> None:
        self.true_positives += other.true_positives
        self.false_positives += other.false_positives
        self.false_negatives += other.false_negatives

    def to_dict(self) -> Dict:
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
        }


@dataclass
class BalanceStats:
    """Partition-load statistics of one cuboid, skewed groups excluded."""

    loads: List[int]
    #: Fair share of the cuboid's *non-skewed* mass: ``total / k``.
    ideal: float
    #: Prop 4.2(2)'s per-partition promise for exact elements:
    #: ``n / k + m`` (see :data:`BALANCE_TOLERANCE`).
    promised: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.loads)

    @property
    def max_load(self) -> int:
        return max(self.loads) if self.loads else 0

    @property
    def mean_load(self) -> float:
        return self.total / len(self.loads) if self.loads else 0.0

    @property
    def imbalance(self) -> float:
        """Max/ideal load factor (1.0 = perfectly balanced)."""
        return self.max_load / self.ideal if self.ideal else 0.0

    @property
    def gini(self) -> float:
        return _gini(self.loads)

    def to_dict(self) -> Dict:
        return {
            "loads": list(self.loads),
            "ideal": round(self.ideal, 2),
            "promised": round(self.promised, 2),
            "max_load": self.max_load,
            "mean_load": round(self.mean_load, 2),
            "imbalance": round(self.imbalance, 3),
            "gini": round(self.gini, 4),
        }


@dataclass
class CuboidAudit:
    """Ground-truth comparison for one cuboid of the lattice."""

    mask: int
    true_skewed: int
    predicted_skewed: int
    confusion: SkewConfusion
    balance: BalanceStats
    #: False negatives whose Chernoff miss probability is below the
    #: confident threshold — strong evidence of sketch corruption.
    confident_false_negatives: List[Tuple] = field(default_factory=list)
    confident_false_positives: List[Tuple] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "mask": self.mask,
            "true_skewed": self.true_skewed,
            "predicted_skewed": self.predicted_skewed,
            "confusion": self.confusion.to_dict(),
            "balance": self.balance.to_dict(),
            "confident_false_negatives": [
                list(values) for values in self.confident_false_negatives
            ],
            "confident_false_positives": [
                list(values) for values in self.confident_false_positives
            ],
        }


@dataclass
class TheoryChecks:
    """Empirical verification of the paper's probability/traffic bounds."""

    emitted_tuples: int
    worst_case_bound: int
    expected_false_negatives: float
    observed_false_negatives: int
    expected_false_positives: float
    observed_false_positives: int

    @property
    def traffic_within_worst_case(self) -> bool:
        """Theorem 5.3 ceiling — must hold for *every* relation/sketch."""
        return self.emitted_tuples <= self.worst_case_bound

    @property
    def false_negatives_within_bound(self) -> bool:
        return self.observed_false_negatives <= (
            self.expected_false_negatives + COUNT_SLACK
        )

    @property
    def false_positives_within_bound(self) -> bool:
        return self.observed_false_positives <= (
            self.expected_false_positives + COUNT_SLACK
        )

    def to_dict(self) -> Dict:
        return {
            "emitted_tuples": self.emitted_tuples,
            "worst_case_bound": self.worst_case_bound,
            "traffic_within_worst_case": self.traffic_within_worst_case,
            "expected_false_negatives": round(
                self.expected_false_negatives, 4
            ),
            "observed_false_negatives": self.observed_false_negatives,
            "false_negatives_within_bound": (
                self.false_negatives_within_bound
            ),
            "expected_false_positives": round(
                self.expected_false_positives, 4
            ),
            "observed_false_positives": self.observed_false_positives,
            "false_positives_within_bound": (
                self.false_positives_within_bound
            ),
        }


@dataclass
class SketchAudit:
    """The full audit of one sketch against one relation."""

    relation_name: str
    num_rows: int
    num_dimensions: int
    num_partitions: int
    memory_records: int
    cuboids: Dict[int, CuboidAudit]
    overall: SkewConfusion
    theory: TheoryChecks
    balance_tolerance: float = BALANCE_TOLERANCE
    monotonicity_error: Optional[str] = None
    planner_error: Optional[str] = None
    sketch_summary: Dict = field(default_factory=dict)

    @property
    def worst_imbalance(self) -> float:
        """The worst audited cuboid's max-load factor."""
        audited = [
            audit.balance.imbalance
            for audit in self.cuboids.values()
            if audit.balance.total >= len(audit.balance.loads)
        ]
        return max(audited) if audited else 0.0

    @property
    def mean_gini(self) -> float:
        audited = [
            audit.balance.gini
            for audit in self.cuboids.values()
            if audit.balance.total >= len(audit.balance.loads)
        ]
        return sum(audited) / len(audited) if audited else 0.0

    def problems(self) -> List[str]:
        """Human-readable findings that indicate a bad sketch."""
        found: List[str] = []
        if self.monotonicity_error is not None:
            found.append(
                f"skew monotonicity violated: {self.monotonicity_error}"
            )
        if self.planner_error is not None:
            found.append(
                f"marking planner rejects the sketch: {self.planner_error}"
            )
        if not self.theory.traffic_within_worst_case:
            found.append(
                "planned traffic exceeds the Theorem 5.3 worst case "
                f"({self.theory.emitted_tuples} > "
                f"{self.theory.worst_case_bound} records)"
            )
        if not self.theory.false_negatives_within_bound:
            found.append(
                f"{self.theory.observed_false_negatives} skewed groups "
                "missed where the Chernoff bound expects at most "
                f"{self.theory.expected_false_negatives:.2f}"
            )
        if not self.theory.false_positives_within_bound:
            found.append(
                f"{self.theory.observed_false_positives} groups wrongly "
                "flagged skewed where the Chernoff bound expects at most "
                f"{self.theory.expected_false_positives:.2f}"
            )
        for mask, audit in sorted(self.cuboids.items()):
            for values in audit.confident_false_negatives:
                found.append(
                    f"cuboid {mask:#x}: truly skewed group {values!r} "
                    "missing from the sketch (miss probability < "
                    f"{CONFIDENT_MISS_PROBABILITY})"
                )
            for values in audit.confident_false_positives:
                found.append(
                    f"cuboid {mask:#x}: group {values!r} flagged skewed "
                    "but far below the memory threshold"
                )
            balance = audit.balance
            ceiling = self.balance_tolerance * balance.promised
            if (
                balance.total >= len(balance.loads)
                and balance.max_load > ceiling
            ):
                found.append(
                    f"cuboid {mask:#x}: unbalanced partitions — max load "
                    f"{balance.max_load} exceeds "
                    f"{self.balance_tolerance}x the n/k + m promise "
                    f"{balance.promised:.0f} (Prop 4.2(2) ceiling "
                    f"{ceiling:.0f})"
                )
        return found

    @property
    def healthy(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict:
        return {
            "relation": self.relation_name,
            "num_rows": self.num_rows,
            "num_dimensions": self.num_dimensions,
            "num_partitions": self.num_partitions,
            "memory_records": self.memory_records,
            "overall": self.overall.to_dict(),
            "worst_imbalance": round(self.worst_imbalance, 3),
            "mean_gini": round(self.mean_gini, 4),
            "theory": self.theory.to_dict(),
            "cuboids": {
                str(mask): audit.to_dict()
                for mask, audit in sorted(self.cuboids.items())
            },
            "sketch": self.sketch_summary,
            "problems": self.problems(),
            "healthy": self.healthy,
        }


def audit_sketch(
    relation,
    sketch,
    memory_records: int,
    balance_tolerance: float = BALANCE_TOLERANCE,
) -> SketchAudit:
    """Audit ``sketch`` against exact ground truth from ``relation``.

    ``memory_records`` is the skew threshold ``m`` the sketch was built
    for (``ClusterConfig.derive_memory``); ground truth per cuboid is the
    exact group-size census ``|set(g)| > m``.
    """
    d = relation.schema.num_dimensions
    k = sketch.num_partitions
    n = len(relation)

    cuboid_audits: Dict[int, CuboidAudit] = {}
    overall = SkewConfusion()
    fn_sizes: List[int] = []  # true sizes of missed skewed groups
    skewed_sizes: List[int] = []
    non_skewed_sizes: List[int] = []
    observed_fp = 0

    for mask in all_cuboids(d):
        sizes = relation.group_sizes(mask)
        truly_skewed = {
            values for values, count in sizes.items()
            if count > memory_records
        }
        predicted = set(sketch.cuboids[mask].skewed)
        confusion = SkewConfusion(
            true_positives=len(predicted & truly_skewed),
            false_positives=len(predicted - truly_skewed),
            false_negatives=len(truly_skewed - predicted),
        )
        overall.add(confusion)
        skewed_sizes.extend(sizes[values] for values in truly_skewed)
        non_skewed_sizes.extend(
            count for values, count in sizes.items()
            if values not in truly_skewed
        )
        observed_fp += confusion.false_positives
        fn_sizes.extend(
            sizes[values] for values in truly_skewed - predicted
        )

        confident_fn = sorted(
            values
            for values in truly_skewed - predicted
            if false_negative_probability(sizes[values], n, k, memory_records)
            < CONFIDENT_MISS_PROBABILITY
        )
        confident_fp = sorted(
            values
            for values in predicted - truly_skewed
            if false_positive_probability(
                sizes.get(values, 0), n, k, memory_records
            )
            < CONFIDENT_MISS_PROBABILITY
        )

        loads = partition_loads(
            relation.rows,
            mask,
            d,
            sketch.cuboids[mask].partition_elements,
            k,
            exclude_groups=truly_skewed,
        )
        ideal = max(sum(loads) / k, 1.0)
        # Every tuple projects into every cuboid, so the element spacing
        # of Definition 4.1 promises at most n/k + m tuples per partition
        # (skewed tuples included in the spacing, one group straddling).
        promised = n / k + memory_records
        cuboid_audits[mask] = CuboidAudit(
            mask=mask,
            true_skewed=len(truly_skewed),
            predicted_skewed=len(predicted),
            confusion=confusion,
            balance=BalanceStats(loads=loads, ideal=ideal, promised=promised),
            confident_false_negatives=confident_fn,
            confident_false_positives=confident_fp,
        )

    # A corrupted sketch can be rejected outright by the marking planner
    # (a skewed node above a non-skewed one is impossible for any sample);
    # the audit must survive that and report it, not crash.
    planner_error = None
    emitted = 0
    try:
        emitted = planned_traffic(relation, sketch).emitted_tuples
    except Exception as error:
        planner_error = str(error)
    theory = TheoryChecks(
        emitted_tuples=emitted,
        worst_case_bound=worst_case_traffic(d, n),
        expected_false_negatives=expected_false_negatives(
            skewed_sizes, n, k, memory_records
        ),
        observed_false_negatives=overall.false_negatives,
        expected_false_positives=expected_false_positives(
            non_skewed_sizes, n, k, memory_records
        ),
        observed_false_positives=observed_fp,
    )

    monotonicity_error = None
    try:
        sketch.validate_monotonic()
    except Exception as error:  # SketchError — keep the message only
        monotonicity_error = str(error)

    return SketchAudit(
        relation_name=relation.name,
        num_rows=n,
        num_dimensions=d,
        num_partitions=k,
        memory_records=memory_records,
        cuboids=cuboid_audits,
        overall=overall,
        theory=theory,
        balance_tolerance=balance_tolerance,
        monotonicity_error=monotonicity_error,
        planner_error=planner_error,
        sketch_summary=sketch.to_dict(),
    )


# -- load attribution ---------------------------------------------------------


@dataclass
class LoadAttribution:
    """Per-reducer load, predicted from the sketch vs observed in a trace.

    Reducer 0 is Algorithm 3's skew reducer (its records are per-mapper
    flushes of partially aggregated skewed groups); reducers ``1..k`` are
    the range partitions.  ``by_cuboid`` breaks each reducer's predicted
    records down by the base cuboid that routed them there.
    """

    num_reducers: int
    predicted: Dict[int, int]
    actual: Optional[Dict[int, int]]
    by_cuboid: Dict[int, Dict[int, int]]
    skew_by_cuboid: Dict[int, int]

    @property
    def predicted_total(self) -> int:
        return sum(self.predicted.values())

    @property
    def matches(self) -> Optional[bool]:
        """True when the trace delivered exactly the predicted records."""
        if self.actual is None:
            return None
        reducers = range(self.num_reducers)
        return all(
            self.predicted.get(r, 0) == self.actual.get(r, 0)
            for r in reducers
        )

    def mismatches(self) -> List[Tuple[int, int, int]]:
        """``(reducer, predicted, actual)`` rows that disagree."""
        if self.actual is None:
            return []
        return [
            (r, self.predicted.get(r, 0), self.actual.get(r, 0))
            for r in range(self.num_reducers)
            if self.predicted.get(r, 0) != self.actual.get(r, 0)
        ]

    def to_dict(self) -> Dict:
        return {
            "num_reducers": self.num_reducers,
            "predicted": {str(r): c for r, c in sorted(self.predicted.items())},
            "actual": (
                None
                if self.actual is None
                else {str(r): c for r, c in sorted(self.actual.items())}
            ),
            "matches": self.matches,
            "mismatches": [list(row) for row in self.mismatches()],
            "by_cuboid": {
                str(r): {str(mask): c for mask, c in sorted(masks.items())}
                for r, masks in sorted(self.by_cuboid.items())
            },
            "skew_by_cuboid": {
                str(mask): c
                for mask, c in sorted(self.skew_by_cuboid.items())
            },
        }


def predicted_reducer_loads(
    relation, sketch, num_mappers: Optional[int] = None
) -> LoadAttribution:
    """The sketch's predicted round-2 loads as a :class:`LoadAttribution`
    (see :func:`repro.core.planner.replay_routing`)."""
    k = sketch.num_partitions
    predicted, by_cuboid, skew_by_cuboid = replay_routing(
        relation, sketch, num_mappers or k
    )
    return LoadAttribution(
        num_reducers=k + 1,
        predicted=predicted,
        actual=None,
        by_cuboid=by_cuboid,
        skew_by_cuboid=skew_by_cuboid,
    )


def attribute_load(
    relation,
    sketch,
    analysis: Optional[TraceAnalysis] = None,
    job: str = "sp-cube",
    num_mappers: Optional[int] = None,
) -> LoadAttribution:
    """Join the sketch's predicted routing with a trace's observed loads.

    ``analysis`` is a :class:`TraceAnalysis` over a run traced at task
    level or finer (so reduce-attempt ``records_in`` counters exist); with
    no trace the attribution carries predictions only.
    """
    attribution = predicted_reducer_loads(relation, sketch, num_mappers)
    if analysis is not None:
        attribution.actual = analysis.reducer_records(job)
    return attribution


# -- the doctor driver --------------------------------------------------------


def run_doctor(
    rows: int = 4000,
    machines: int = 8,
    engines: Optional[Sequence[str]] = None,
    binomial_skews: Sequence[float] = (0.1, 0.4),
    zipf_exponents: Sequence[float] = (1.1, 1.6),
    seed: int = 0,
    balance_tolerance: float = BALANCE_TOLERANCE,
) -> Dict:
    """Run the full diagnostic battery; returns one JSON-able report.

    For every dataset of the binomial and Zipf sweeps: compute the cube
    with SP-Cube under a task-level tracer, audit its sketch against
    exact ground truth, attribute per-reducer load (predicted vs traced),
    and run the other requested engines for the side-by-side balance and
    runtime comparison.
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
            "balance_tolerance": balance_tolerance,
        },
        "datasets": [],
        "problems": [],
    }

    for label, make_relation, params in datasets:
        relation = make_relation()
        entry: Dict = {"name": label, "params": params, "engines": {}}

        engine_rows: Dict[str, Dict] = {}
        sketch = None
        spcube_analysis = None
        for name in engine_names:
            sink = MemorySink()
            tracer = Tracer([sink], level="task")
            cluster = paper_cluster(rows, num_machines=machines)
            cluster.tracer = tracer
            run = engine_registry[name](cluster, Count()).compute(relation)
            tracer.close()
            metrics = run.metrics
            engine_rows[name] = {
                "total_seconds": round(metrics.total_seconds, 2),
                "map_output_mb": round(metrics.intermediate_bytes / 1e6, 3),
                "reducer_balance": round(metrics.reducer_balance, 3),
                "failed": metrics.failed,
            }
            if name == "spcube":
                sketch = run.sketch
                spcube_analysis = TraceAnalysis(sink.records)
                spcube_cube = run.cube
        entry["engines"] = engine_rows

        memory = paper_cluster(rows, num_machines=machines).derive_memory(
            len(relation)
        )
        audit = audit_sketch(
            relation, sketch, memory, balance_tolerance=balance_tolerance
        )
        entry["audit"] = audit.to_dict()
        attribution = attribute_load(relation, sketch, spcube_analysis)
        entry["attribution"] = attribution.to_dict()

        # Serving-store footprint: persist the SP-Cube result to a
        # scratch store and compare bytes on disk against the resident
        # cube, so store-format bloat (or a broken compression ratio)
        # surfaces in the same report as sketch quality.
        spcube_run = spcube_cube
        in_memory_bytes = estimate_cube_bytes(spcube_run)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "doctor.store")
            store_bytes = CubeStore.write(
                spcube_run, store_path, aggregate="count"
            )
        entry["store"] = {
            "groups": spcube_run.num_groups,
            "in_memory_bytes": in_memory_bytes,
            "store_bytes": store_bytes,
            "ratio": round(
                store_bytes / in_memory_bytes if in_memory_bytes else 0.0, 4
            ),
        }

        for problem in audit.problems():
            report["problems"].append(f"{label}: {problem}")
        if attribution.matches is False:
            report["problems"].append(
                f"{label}: traced reducer loads diverge from the "
                f"sketch's routing at {attribution.mismatches()[:3]}"
            )
        report["datasets"].append(entry)

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
        matches = attribution["matches"]
        attribution_rows.append(
            [
                entry["name"],
                str(skew),
                str(ranged),
                "n/a" if matches is None else ("yes" if matches else "NO"),
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
