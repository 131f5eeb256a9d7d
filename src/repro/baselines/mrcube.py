"""MR-Cube — the algorithm behind Pig's CUBE operator (Nandi et al. [26]).

This is the paper's main competitor ("Pig" in Figures 4-8).  Faithful to
the published algorithm plus the combiner Pig adds on top:

1. **Sampling round.**  A Bernoulli sample flows to one reducer, which
   estimates, *per cuboid*, the largest group size.  A cuboid whose largest
   estimated group exceeds the reducer-friendliness bound (a fraction of
   reducer memory) is marked **unfriendly** — note the decision is at the
   granularity of a whole cuboid, the key weakness Section 1 contrasts
   SP-Cube against.
2. **Materialization round.**  Mappers emit one pair per row per cuboid
   (Pig's ``CubeDimensions`` expansion).  For unfriendly cuboids the key
   carries an extra *value-partition* shard id, splitting each large group
   across ``p_c`` reducers; a combiner partially aggregates every map
   task's buffer.  Reducers finalize friendly groups and emit shard-level
   partial states for unfriendly ones.
3. **Post-aggregation round** (only when unfriendly cuboids exist) merges
   the shard states into final groups.

The skew sensitivity the paper measures comes out naturally: higher skew
means more unfriendly cuboids, larger shard fan-out, a third round with
more data, and combiner-resistant traffic for the uniform tail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

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
from ..relation.lattice import all_cuboids, project, projector
from ..relation.relation import Relation
from ..core.sampling import _SampleMapper, sampling_probability

#: Fraction of reducer memory a single group may fill before its cuboid is
#: declared reducer-unfriendly (MR-Cube uses 0.75 of reducer capacity).
FRIENDLINESS_FRACTION = 0.75


class MRCube:
    """MR-Cube / Pig CUBE: cuboid-granularity skew handling."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        aggregate: Optional[AggregateFunction] = None,
    ):
        self.cluster = cluster or ClusterConfig()
        self.aggregate = aggregate or Count()

    @property
    def name(self) -> str:
        return "Pig (MR-Cube)"

    def compute(self, relation: Relation) -> CubeRun:
        n = len(relation)
        k = self.cluster.num_machines
        m = self.cluster.derive_memory(n)
        d = relation.schema.num_dimensions
        metrics = RunMetrics(algorithm=self.name)
        cube = CubeResult(relation.schema)
        # All rounds run through the checkpoint/recovery layer; a node
        # loss resumes the round instead of aborting the run.
        runner = RoundRunner(self.cluster, metrics)

        # ---- round 1: sample and annotate the lattice ----------------------
        alpha = sampling_probability(n, k, m)
        shard_plan = self._sampling_round(
            relation, alpha, k, m, d, metrics, runner
        )
        # A round that exhausts its retry budget stops the run, with no
        # output.
        if not metrics.aborted:
            metrics.extras["unfriendly_cuboids"] = len(shard_plan)

            # ---- round 2: materialize --------------------------------------
            final_pairs, shard_pairs = self._materialization_round(
                relation, shard_plan, k, m, d, metrics, runner
            )

            # ---- round 3: post-aggregate value-partitioned cuboids ---------
            if shard_pairs and not metrics.aborted:
                final_pairs.extend(
                    self._post_aggregation_round(
                        shard_pairs, k, m, metrics, runner
                    )
                )
            if not metrics.aborted:
                cube.add_pairs(final_pairs)
        return CubeRun(cube=cube, metrics=runner.finish(cube))

    # -- round 1 ----------------------------------------------------------------

    def _sampling_round(
        self,
        relation: Relation,
        alpha: float,
        k: int,
        m: int,
        d: int,
        metrics: RunMetrics,
        runner: RoundRunner,
    ) -> Dict[int, int]:
        """Estimate per-cuboid max group size; return ``{mask: shards}``."""
        holder: List[Dict[int, int]] = []
        capacity = FRIENDLINESS_FRACTION * m
        seed = self.cluster.seed + 17  # independent of SP-Cube's stream

        job = MapReduceJob(
            name="mrcube-sample",
            mapper_factory=TaskFactory(_SampleMapper, alpha, seed),
            reducer_factory=TaskFactory(
                _AnnotateReducer, d, alpha, capacity, holder
            ),
            num_reducers=1,
        )
        result = runner.run(job, relation.split(k), m)
        metrics.extras["sample_size"] = result.metrics.map_output_records
        return holder[0] if holder else {}

    # -- round 2 ----------------------------------------------------------------

    def _materialization_round(
        self,
        relation: Relation,
        shard_plan: Dict[int, int],
        k: int,
        m: int,
        d: int,
        metrics: RunMetrics,
        runner: RoundRunner,
    ) -> Tuple[List, List]:
        aggregate = self.aggregate

        job = MapReduceJob(
            name="mrcube-materialize",
            mapper_factory=TaskFactory(_ExpandMapper, d, aggregate, shard_plan),
            reducer_factory=TaskFactory(
                _MaterializeReducer, aggregate, shard_plan
            ),
            combiner=_MergeCombiner(aggregate),
            cuboid_of=cuboid_of_mask_key,
        )
        result = runner.run(job, relation.split(k), m)

        final_pairs: List = []
        shard_pairs: List = []
        for key, value in result.output:
            if key[0] == "VP":
                shard_pairs.append((key[1:], value))
            else:
                final_pairs.append((key, value))
        return final_pairs, shard_pairs

    # -- round 3 ----------------------------------------------------------------

    def _post_aggregation_round(
        self,
        shard_pairs: List,
        k: int,
        m: int,
        metrics: RunMetrics,
        runner: RoundRunner,
    ) -> List:
        aggregate = self.aggregate
        job = MapReduceJob(
            name="mrcube-postagg",
            mapper_factory=TaskFactory(_IdentityMapper),
            reducer_factory=TaskFactory(_FinalizeReducer, aggregate),
            cuboid_of=cuboid_of_mask_key,
        )
        chunks = _spread(shard_pairs, k)
        result = runner.run(job, chunks, m)
        return list(result.output)


class _AnnotateReducer(Reducer):
    """Scale sample counts to full-data estimates; pick shard factors."""

    def __init__(
        self,
        d: int,
        alpha: float,
        capacity: float,
        holder: List[Dict[int, int]],
    ):
        self._d = d
        self._alpha = alpha
        self._capacity = capacity
        self._holder = holder

    def reduce(self, key, values):
        d = self._d
        sample = values
        self.context.add_cpu(len(sample) * (1 << d))
        plan: Dict[int, int] = {}
        if self._alpha > 0:
            for mask in all_cuboids(d):
                counts: Dict[Tuple, int] = {}
                for row in sample:
                    group = project(row, mask, d)
                    counts[group] = counts.get(group, 0) + 1
                top = max(counts.values(), default=0)
                # Lower confidence bound on the scaled estimate: a raw
                # count/alpha estimate fires on Poisson noise and would
                # value-partition nearly every cuboid; MR-Cube's annotation
                # only reacts to statistically solid evidence of a large
                # group.
                largest = max(0.0, top - 2.0 * math.sqrt(top)) / self._alpha
                if largest > self._capacity:
                    plan[mask] = max(
                        2, math.ceil(largest / self._capacity)
                    )
        self._holder.append(plan)
        return ()


class _ExpandMapper(Mapper):
    """Pig's CubeDimensions: all ``2^d`` grouping combos per row, with
    value-partition shards appended for unfriendly cuboids."""

    def __init__(
        self,
        d: int,
        aggregate: AggregateFunction,
        shard_plan: Dict[int, int],
    ):
        self._d = d
        self._aggregate = aggregate
        self._shard_plan = shard_plan
        self._projectors = [
            (mask, projector(mask, d), shard_plan.get(mask))
            for mask in all_cuboids(d)
        ]
        self._row_index = 0

    def map(self, record):
        d = self._d
        aggregate = self._aggregate
        self.context.add_cpu(1 << d)
        state = aggregate.add(aggregate.create(), record[-1])
        row_index = self._row_index
        self._row_index += 1
        for mask, get, shards in self._projectors:
            values = get(record)
            if shards is None:
                yield (mask, values), state
            else:
                yield (mask, values, row_index % shards), state


class _MaterializeReducer(Reducer):
    """Finalize friendly groups; re-emit shard partials for round 3."""

    def __init__(self, aggregate: AggregateFunction, shard_plan: Dict[int, int]):
        self._aggregate = aggregate
        self._shard_plan = shard_plan

    def reduce(self, key, values):
        aggregate = self._aggregate
        merged = _merge_all(aggregate, values)
        if len(key) == 3:
            mask, group_values, _shard = key
            yield ("VP", mask, group_values), merged
        else:
            mask, group_values = key
            yield (mask, group_values), aggregate.finalize(merged)


class _MergeCombiner:
    """Hadoop combiner merging per-key partial aggregate states."""

    __slots__ = ("_aggregate",)

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def __call__(self, key, values):
        yield key, _merge_all(self._aggregate, values)


class _IdentityMapper(Mapper):
    """Round 3 map: shard records are already ``(key, state)`` pairs."""

    def map(self, record):
        yield record


class _FinalizeReducer(Reducer):
    """Round 3 reduce: merge shard states per group and finalize."""

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def reduce(self, key, states):
        aggregate = self._aggregate
        yield key, aggregate.finalize(_merge_all(aggregate, states))


def _merge_all(aggregate: AggregateFunction, states) -> object:
    merged = aggregate.create()
    for state in states:
        merged = aggregate.merge(merged, state)
    return merged


def _spread(records: List, num_chunks: int) -> List[List]:
    """Round-robin records into ``num_chunks`` mapper inputs."""
    chunks: List[List] = [[] for _ in range(num_chunks)]
    for index, record in enumerate(records):
        chunks[index % num_chunks].append(record)
    return chunks
