"""Experiment harness: run a set of algorithms over a workload sweep.

Every figure in the paper is a sweep — data size, or the skewness knob
``p`` — with one curve per algorithm.  :func:`run_sweep` executes that
pattern: for each x-value it builds fresh algorithm instances (factories
keep per-run state isolated), computes the cube, and records each
run's :class:`RunMetrics`.

Metric accessors are by name so benches and reports stay declarative; see
:data:`METRICS` for the supported set (they cover every panel of Figures
4-8).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..interface import CubeRun
from ..mapreduce.cluster import ClusterConfig
from ..mapreduce.faults import FaultPlan, RetryPolicy
from ..mapreduce.metrics import RunMetrics
from ..relation.relation import Relation

AlgorithmFactory = Callable[[ClusterConfig], object]

#: Records a JVM reducer holds per nominal record slot; see
#: :func:`paper_cluster`.
OBJECT_OVERHEAD = 4


#: Named metric accessors over a RunMetrics.  Byte metrics are exact ints;
#: the golden figure tables scale them to the paper's MB/KB axes.
METRICS: Dict[str, Callable[[RunMetrics], float]] = {
    "total_seconds": lambda m: m.total_seconds,
    "avg_map_seconds": lambda m: m.avg_map_seconds,
    "avg_reduce_seconds": lambda m: m.avg_reduce_seconds,
    "map_output_bytes": lambda m: m.intermediate_bytes,
    "map_output_records": lambda m: float(m.intermediate_records),
    "sketch_bytes": lambda m: int(m.extras.get("sketch_bytes", 0)),
    "num_skewed_groups": lambda m: m.extras.get("num_skewed_groups", 0.0),
    "reducer_balance": lambda m: m.reducer_balance,
    "output_groups": lambda m: float(m.output_groups),
    "failed": lambda m: 1.0 if m.failed else 0.0,
    # Fault-tolerance counters (repro.mapreduce.faults): how hard the
    # framework had to work to keep the run alive.
    "attempts": lambda m: float(m.attempts),
    "killed_tasks": lambda m: float(m.killed_tasks),
    "speculative_wins": lambda m: float(m.speculative_wins),
    "recovered": lambda m: float(m.recovered),
    "recovery_overhead_seconds": lambda m: m.recovery_overhead(),
    "aborted": lambda m: 1.0 if m.aborted else 0.0,
    # Failure-domain counters (repro.mapreduce.checkpoint): node losses
    # and the checkpoint-resume recoveries they triggered.
    "nodes_lost": lambda m: float(m.nodes_lost),
    "resumed_rounds": lambda m: float(m.resumed_rounds),
}


def derive_fault_seed(base_seed: int, algorithm: str, x: float) -> int:
    """The fault seed for one (sweep point, algorithm) run.

    ``crc32(repr((base_seed, algorithm, x)))`` — a pure function of the
    sweep's base seed and the run's identity, independent of point order
    or of which other algorithms run.  Deriving per-run seeds keeps the
    fault schedules of a sweep's runs statistically independent: with a
    single shared seed, every point of a curve replays the *same* coin
    flips (task identities repeat across points), so one unlucky crash
    pattern biases the whole curve instead of averaging out.
    """
    return zlib.crc32(repr((base_seed, algorithm, x)).encode("utf-8"))


class VerificationError(AssertionError):
    """Raised when two algorithms disagree on the cube of the same input."""


@dataclass
class PointResult:
    """All algorithm runs at one x-value of a sweep."""

    x: float
    runs: Dict[str, RunMetrics] = field(default_factory=dict)


@dataclass
class SweepResult:
    """One full experiment: an x-axis and one curve per algorithm."""

    points: List[PointResult] = field(default_factory=list)


def run_algorithms(
    relation: Relation,
    algorithms: Dict[str, object],
    verify: bool = False,
) -> Dict[str, CubeRun]:
    """Run each algorithm on ``relation``; optionally cross-check cubes."""
    runs: Dict[str, CubeRun] = {}
    for name, algorithm in algorithms.items():
        runs[name] = algorithm.compute(relation)
    if verify:
        # Aborted runs have no output to compare — they are reported as
        # stuck, exactly how Figure 6a shows Hive's missing data points.
        completed = [
            name for name, run in runs.items() if not run.metrics.aborted
        ]
        if len(completed) > 1:
            reference_name = completed[0]
            reference = runs[reference_name].cube
            for other in completed[1:]:
                if runs[other].cube != reference:
                    problems = reference.diff(runs[other].cube, limit=5)
                    raise VerificationError(
                        f"{other} disagrees with {reference_name} on "
                        f"{relation.name}: {problems}"
                    )
    return runs


def run_sweep(
    workloads: Iterable[Tuple[float, Relation]],
    factories: Dict[str, AlgorithmFactory],
    cluster: Optional[ClusterConfig] = None,
) -> SweepResult:
    """Execute a full sweep: one point per workload, one run per factory.

    Parameters
    ----------
    workloads:
        ``(x, relation)`` pairs, typically from a generator sweep.
    factories:
        ``{algorithm name: factory(cluster) -> algorithm}``; a fresh
        instance per point keeps runs independent.
    cluster:
        Shared cluster configuration (default 20 machines, as the paper).
    """
    cluster = cluster or ClusterConfig()
    sweep = SweepResult()

    for x, relation in workloads:
        point = PointResult(x=x)
        instances = {
            algo_name: factory(cluster)
            for algo_name, factory in factories.items()
        }
        for algo_name, run in run_algorithms(relation, instances).items():
            point.runs[algo_name] = run.metrics
        sweep.points.append(point)
    return sweep


def paper_cluster(
    num_rows: int,
    num_machines: int = 20,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    parallelism: Optional[int] = None,
    num_nodes: Optional[int] = None,
    checkpoint: bool = True,
) -> ClusterConfig:
    """The benchmark cluster: 20 machines, JVM-overhead-calibrated memory.

    The paper's testbed gives each machine memory "in the order of its
    input size" (``m = n/k``), but a JVM holds far fewer *records* than the
    raw byte count suggests — object headers and boxing inflate records by
    roughly 4-10x, which is what made reducers on the authors' 15 GB
    machines choke on multi-million-row groups.  :data:`OBJECT_OVERHEAD`
    divides the nominal ``n/k`` record budget accordingly; 4 is
    conservative.  This calibration is what places Hive's observed failure
    at ``p >= 0.4`` on gen-binomial (Figure 6a): the 20 planted groups hold
    ``p * n/20`` rows each, and with ``m = n/(4k) = n/80`` they cross the
    skew/memory threshold exactly when ``p`` passes ~1/4-1/3.
    """
    if num_machines < 1:
        raise ValueError("num_machines must be positive")
    memory = max(16, num_rows // (OBJECT_OVERHEAD * num_machines))
    return ClusterConfig(
        num_machines=num_machines,
        memory_records=memory,
        fault_plan=fault_plan,
        retry_policy=retry_policy or RetryPolicy(),
        parallelism=parallelism,
        num_nodes=num_nodes,
        checkpoint_enabled=checkpoint,
    )
