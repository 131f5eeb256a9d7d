"""Top-down multi-round MapReduce cube (Lee et al. [25]).

Section 7 discusses this competitor: it parallelizes PipeSort, deriving
each cuboid from a one-attribute-larger parent along an aggregation tree.
Every lattice *level* becomes one MapReduce round — ``d + 1`` rounds in
total — and each round re-shuffles the previous level's aggregate states.

The paper excludes it from the experiments because the extra rounds (and
their RAM-to-disk transitions) make it strictly slower, and because a
skewed c-group still lands on a single reducer.  We implement it anyway:
it completes the related-work landscape, the round-count cost is a useful
demonstration of why SP-Cube's two-round structure matters, and the
ablation bench uses it as the "many rounds" reference point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..aggregates.functions import AggregateFunction, Count
from ..cubing.pipesort import aggregation_tree
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
from ..observability.tracer import NULL_TRACER, emit_run_span
from ..relation.lattice import full_mask, mask_size, project
from ..relation.relation import Relation


class PipeSortMR:
    """[25]: one round per lattice level, top-down along an aggregation tree."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        aggregate: Optional[AggregateFunction] = None,
    ):
        self.cluster = cluster or ClusterConfig()
        self.aggregate = aggregate or Count()

    @property
    def name(self) -> str:
        return "PipeSort-MR"

    def compute(self, relation: Relation) -> CubeRun:
        n = len(relation)
        k = self.cluster.num_machines
        m = self.cluster.derive_memory(n)
        d = relation.schema.num_dimensions
        aggregate = self.aggregate
        metrics = RunMetrics(algorithm=self.name)
        tracer = self.cluster.tracer or NULL_TRACER
        self._run_base = tracer.clock
        # d + 1 rounds, each checkpointed: node losses resume the failed
        # level instead of aborting the whole pipeline.
        runner = RoundRunner(self.cluster, metrics, run_id="pipesort")

        # Round 0: the finest cuboid from the raw relation.
        job = MapReduceJob(
            name="pipesort-level-%d" % d,
            mapper_factory=TaskFactory(_BaseMapper, d, aggregate),
            reducer_factory=TaskFactory(_MergeReducer, aggregate),
            cuboid_of=cuboid_of_mask_key,
        )
        result = runner.run(job, relation.split(k), m)
        if result.metrics.aborted:
            return self._aborted_run(relation, metrics)
        level_states: Dict[Tuple[int, Tuple], object] = dict(result.output)
        all_states = dict(level_states)

        # One round per remaining level, deriving children from parents.
        plan = aggregation_tree(d)
        children_of: Dict[int, List[int]] = {}
        for child, parent in plan.items():
            children_of.setdefault(parent, []).append(child)

        for level in range(d - 1, -1, -1):
            parents = [
                (key, state)
                for key, state in level_states.items()
                if mask_size(key[0]) == level + 1
            ]

            job = MapReduceJob(
                name="pipesort-level-%d" % level,
                mapper_factory=TaskFactory(_DeriveMapper, children_of, d),
                reducer_factory=TaskFactory(_MergeReducer, aggregate),
                cuboid_of=cuboid_of_mask_key,
            )
            result = runner.run(job, _spread(parents, k), m)
            if result.metrics.aborted:
                return self._aborted_run(relation, metrics)
            level_states = dict(result.output)
            all_states.update(level_states)

        cube = CubeResult(relation.schema)
        for (mask, values), state in all_states.items():
            cube.add(mask, values, aggregate.finalize(state))
        metrics.output_groups = cube.num_groups
        metrics.extras["rounds"] = sum(
            1 for job_metrics in metrics.jobs if not job_metrics.superseded
        )
        emit_run_span(tracer, metrics, self._run_base)
        return CubeRun(cube=cube, metrics=metrics)

    def _aborted_run(
        self, relation: Relation, metrics: RunMetrics
    ) -> CubeRun:
        """A level round exhausted its retry budget: stop, no output."""
        metrics.extras["rounds"] = sum(
            1 for job_metrics in metrics.jobs if not job_metrics.superseded
        )
        emit_run_span(
            self.cluster.tracer or NULL_TRACER, metrics, self._run_base
        )
        return CubeRun(cube=CubeResult(relation.schema), metrics=metrics)


class _BaseMapper(Mapper):
    """Round 0 map: project every raw row onto the finest cuboid."""

    def __init__(self, d: int, aggregate: AggregateFunction):
        self._d = d
        self._top = full_mask(d)
        self._aggregate = aggregate

    def map(self, row):
        top = self._top
        yield (top, project(row, top, self._d)), _single(
            self._aggregate, row[-1]
        )


class _DeriveMapper(Mapper):
    """Level round map: derive each child cuboid's groups from a parent."""

    def __init__(self, children_of: Dict[int, List[int]], d: int):
        self._children_of = children_of
        self._d = d

    def map(self, record):
        (parent_mask, parent_values), state = record
        for child_mask in self._children_of.get(parent_mask, ()):
            child_values = _reproject(
                parent_mask, parent_values, child_mask, self._d
            )
            yield (child_mask, child_values), state


class _MergeReducer(Reducer):
    """Merge the delivered aggregate states of one group (no finalize —
    states keep flowing down the levels)."""

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def reduce(self, key, states):
        yield key, _merge_all(self._aggregate, states)


def _single(aggregate: AggregateFunction, measure) -> object:
    return aggregate.add(aggregate.create(), measure)


def _merge_all(aggregate: AggregateFunction, states) -> object:
    merged = aggregate.create()
    for state in states:
        merged = aggregate.merge(merged, state)
    return merged


def _reproject(
    parent_mask: int, parent_values: Tuple, child_mask: int, d: int
) -> Tuple:
    """Drop from the parent's value tuple the dimensions absent in the child."""
    values = []
    index = 0
    for dim in range(d):
        if parent_mask >> dim & 1:
            if child_mask >> dim & 1:
                values.append(parent_values[index])
            index += 1
    return tuple(values)


def _spread(records: List, num_chunks: int) -> List[List]:
    chunks: List[List] = [[] for _ in range(num_chunks)]
    for index, record in enumerate(records):
        chunks[index % num_chunks].append(record)
    return chunks
