"""The naive MapReduce cube — Algorithm 1 of the paper (Section 3.1).

Each mapper projects every tuple onto all ``2^d`` subsets of its dimensions
and emits one ``(c-group, measure)`` pair per projection; the framework's
hash partitioner routes each c-group to a reducer, which aggregates the
delivered measure list.

The paper uses this algorithm to expose the three problems SP-Cube solves
(Sections 3.2-3.4): skewed groups overflow reducer memory, hash routing
gives no balance guarantee, and ``n * 2^d`` pairs cross the network.  It is
implemented here both as that pedagogical baseline and as a simple,
trustworthy distributed oracle — it handles *any* aggregate, including
holistic ones, since reducers see raw measure values.

``use_combiner=True`` adds a Hadoop combiner that pre-merges each map
task's output per c-group (the ablation bench uses this to quantify how far
combiners alone go — the paper notes Pig adds them to [26] and remains
distribution-sensitive).
"""

from __future__ import annotations

from typing import List, Optional

from ..aggregates.functions import AggregateFunction, Count
from ..cubing.result import CubeResult
from ..interface import CubeRun
from ..mapreduce.checkpoint import RoundRunner
from ..mapreduce.cluster import ClusterConfig
from ..mapreduce.engine import (
    Mapper,
    MapReduceJob,
    Reducer,
    TaskFactory,
    cuboid_of_mask_key,
)
from ..mapreduce.metrics import RunMetrics
from ..relation.lattice import all_cuboids, projector
from ..relation.relation import Relation


class NaiveCube:
    """Algorithm 1: project-everything, aggregate reduce-side."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        aggregate: Optional[AggregateFunction] = None,
        *,
        use_combiner: bool = False,
    ):
        self.cluster = cluster or ClusterConfig()
        self.aggregate = aggregate or Count()
        self.use_combiner = use_combiner

    @property
    def name(self) -> str:
        return "Naive-MR" + ("+combiner" if self.use_combiner else "")

    def compute(self, relation: Relation) -> CubeRun:
        n = len(relation)
        k = self.cluster.num_machines
        m = self.cluster.derive_memory(n)
        d = relation.schema.num_dimensions
        aggregate = self.aggregate

        combiner = _PartialCombiner(aggregate) if self.use_combiner else None

        job = MapReduceJob(
            name="naive-cube",
            mapper_factory=TaskFactory(_NaiveMapper, d),
            reducer_factory=TaskFactory(_NaiveReducer, aggregate),
            combiner=combiner,
            cuboid_of=cuboid_of_mask_key,
        )
        metrics = RunMetrics(algorithm=self.name)
        runner = RoundRunner(self.cluster, metrics)
        result = runner.run(job, relation.split(k), m)

        cube = CubeResult(relation.schema)
        cube.add_pairs(result.output)
        return CubeRun(cube=cube, metrics=runner.finish(cube))


class _PartialCombiner:
    """Hadoop combiner: fold a map task's raw measures per c-group into a
    single tagged partial state."""

    __slots__ = ("_aggregate",)

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def __call__(self, key, values):
        aggregate = self._aggregate
        yield key, ("partial", aggregate.fold(aggregate.create(), values))


class _NaiveMapper(Mapper):
    """Lines 1-6: emit every projection with the tuple's measure."""

    def __init__(self, d: int):
        self._d = d
        self._projectors = [
            (mask, projector(mask, d)) for mask in all_cuboids(d)
        ]

    def map(self, record):
        measure = record[-1]
        self.context.add_cpu(1 << self._d)
        for mask, get in self._projectors:
            yield (mask, get(record)), measure


class _NaiveReducer(Reducer):
    """Lines 7-9: fold the delivered values; also merges combiner output."""

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def reduce(self, key, values: List):
        aggregate = self._aggregate
        state = aggregate.create()
        for value in values:
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "partial":
                state = aggregate.merge(state, value[1])
            else:
                state = aggregate.add(state, value)
        yield key, aggregate.finalize(state)
