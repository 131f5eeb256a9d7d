"""Simulated cluster configuration (paper Section 2.3).

The paper's model: ``k`` machines, the ``n`` input tuples equally loaded,
``m = n / k``, and each machine's main memory is ``O(m)``.  A c-group is
*skewed* when ``|set(g)| > m`` (Definition 2.7).

:class:`ClusterConfig` pins these parameters for a run.  ``memory_records``
may be left unset, in which case it is derived as ``ceil(n / k)`` when a job
starts — exactly the paper's convention — and fixed for the rest of the run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .costmodel import CostModel
from .executor import ParallelExecutor, SerialExecutor
from .faults import FaultPlan, RetryPolicy

#: Multiplier on ``m`` for the *physical* memory bound used by spill
#: accounting ("memory is O(m)"); the skew threshold itself always uses
#: ``m`` exactly.
MEMORY_SLACK = 2.0


@dataclass(frozen=True)
class NodeTopology:
    """How the ``k`` logical machines map onto physical failure domains.

    The paper's model schedules one map and one reduce task per *machine*;
    real clusters pack several such slots onto each physical *node*, and a
    node death takes every co-located task down together.  The topology
    is a pure function of its parameters — placement must be
    bit-identical between serial and parallel executors, so nothing here
    may depend on execution order.  Machine ``i`` lives
    on node ``i % num_nodes`` (Hadoop-style round-robin slot spreading).
    """

    num_nodes: int
    num_machines: int

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.num_nodes > self.num_machines:
            raise ValueError("num_nodes must be <= num_machines")

    def node_of(self, machine: int) -> int:
        """The node that machine (task slot) ``machine`` lives on."""
        if not 0 <= machine < self.num_machines:
            raise ValueError(f"machine {machine} out of range")
        return machine % self.num_nodes

    def machines_on(self, node: int) -> Tuple[int, ...]:
        """All machine slots placed on ``node``."""
        return tuple(
            m for m in range(self.num_machines) if self.node_of(m) == node
        )


@dataclass
class ClusterConfig:
    """Static description of the simulated MapReduce cluster.

    Parameters
    ----------
    num_machines:
        ``k`` — machines available; each runs one map task and one reduce
        task per round (paper Section 2.3).  The paper's testbed used 20.
    memory_records:
        ``m`` — per-machine main-memory capacity, in records.  ``None``
        derives ``ceil(n / k)`` from the input size at job start.
    cost_model:
        Coefficients that translate simulator counters into simulated
        seconds; see :class:`~repro.mapreduce.costmodel.CostModel`.
    seed:
        Seed for any randomized behaviour tied to the cluster (sampling).
    fault_plan:
        Seeded fault injections for runs on this cluster (``None`` means
        a healthy cluster); see :class:`~repro.mapreduce.faults.FaultPlan`.
    retry_policy:
        How the framework recovers from injected task failures; see
        :class:`~repro.mapreduce.faults.RetryPolicy`.
    parallelism:
        Threads a phase's map/reduce tasks are interleaved on (``None``
        or 1 = serial).  It exists for the identity and fault tests, not
        for speed — the paper's parallelism is simulated by the cost
        model — and parallel runs are bit-identical to serial ones; see
        :mod:`repro.mapreduce.executor`.
    tracer:
        A :class:`~repro.observability.Tracer` receiving span/event
        records from every job run on this cluster (``None`` = the
        zero-overhead null tracer) — the cluster's one observer: metrics,
        lineage and watchdog alerts are derived from its records by the
        sinks attached to it; see :mod:`repro.observability`.
    num_nodes:
        Physical failure domains the ``k`` machine slots are packed onto.
        ``None`` gives every machine its own node — the pre-topology
        behaviour, where a node death is just one task slot dying.
    checkpoint_enabled:
        Whether multi-round engines keep each completed round (and a
        node-killed round's completed partitions) as a checkpoint and
        resume from it after a node loss, instead of aborting the whole
        run; see
        :class:`~repro.mapreduce.checkpoint.RoundRunner`.
    """

    num_machines: int = 20
    memory_records: Optional[int] = None
    cost_model: CostModel = field(default_factory=CostModel)
    seed: int = 0x5BC
    fault_plan: Optional[FaultPlan] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    parallelism: Optional[int] = None
    tracer: Optional[object] = None
    num_nodes: Optional[int] = None
    checkpoint_enabled: bool = True

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if self.memory_records is not None and self.memory_records <= 0:
            raise ValueError("memory_records must be positive when given")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1 when given")
        # Validate topology parameters eagerly, at configuration time.
        self.topology()

    def topology(self) -> NodeTopology:
        """The node topology machines are placed on (one node per machine
        when ``num_nodes`` is unset)."""
        return NodeTopology(
            num_nodes=(
                self.num_machines if self.num_nodes is None else self.num_nodes
            ),
            num_machines=self.num_machines,
        )

    def task_executor(self):
        """The executor backend jobs on this cluster run their tasks on."""
        if self.parallelism is None or self.parallelism == 1:
            return SerialExecutor()
        return ParallelExecutor(self.parallelism)

    def derive_memory(self, num_input_records: int) -> int:
        """``m`` for an input of the given size (paper: ``m = n / k``)."""
        if self.memory_records is not None:
            return self.memory_records
        return max(1, math.ceil(num_input_records / self.num_machines))

    def physical_memory(self, memory_records: int) -> int:
        """Records a machine can actually hold before spilling."""
        return max(1, int(memory_records * MEMORY_SLACK))

    def with_memory(self, memory_records: int) -> "ClusterConfig":
        """A copy of this config with ``m`` pinned explicitly."""
        return dataclasses.replace(self, memory_records=memory_records)
