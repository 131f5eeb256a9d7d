"""Simulated MapReduce substrate: cluster, engine, metrics, cost model."""

from .checkpoint import RoundRunner
from .cluster import ClusterConfig, NodeTopology
from .costmodel import CostModel
from .engine import (
    FunctionMapper,
    FunctionReducer,
    JobResult,
    Mapper,
    MapReduceJob,
    PairFormatError,
    Reducer,
    TaskContext,
    TaskFactory,
    cuboid_of_mask_key,
    hash_partitioner,
    paused_gc,
    run_job,
    stable_hash,
)
from .executor import (
    ParallelExecutor,
    SerialExecutor,
    TaskOutcome,
    run_task_chain,
)
from .faults import (
    NO_FAULTS,
    NODE_KILL,
    FaultPlan,
    FaultSpec,
    NodeFaultSpec,
    RetryPolicy,
)
from .metrics import (
    JobMetrics,
    MetricsInvariantError,
    RunMetrics,
    TaskMetrics,
)
from .sizes import Block, estimate_bytes, pair_bytes, relation_bytes

__all__ = [
    "RoundRunner",
    "ClusterConfig",
    "NodeTopology",
    "CostModel",
    "FaultPlan",
    "FaultSpec",
    "NodeFaultSpec",
    "RetryPolicy",
    "NO_FAULTS",
    "NODE_KILL",
    "PairFormatError",
    "FunctionMapper",
    "FunctionReducer",
    "JobResult",
    "Mapper",
    "MapReduceJob",
    "Reducer",
    "TaskContext",
    "TaskFactory",
    "hash_partitioner",
    "paused_gc",
    "cuboid_of_mask_key",
    "run_job",
    "stable_hash",
    "ParallelExecutor",
    "SerialExecutor",
    "TaskOutcome",
    "run_task_chain",
    "JobMetrics",
    "MetricsInvariantError",
    "RunMetrics",
    "TaskMetrics",
    "Block",
    "estimate_bytes",
    "pair_bytes",
    "relation_bytes",
]
