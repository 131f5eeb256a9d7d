"""Hive-style cube — the physical plan of ``GROUP BY ... WITH CUBE``.

Hive compiles a cube query into a single MapReduce job: the map operator
expands every row into all ``2^d`` grouping sets, feeding a **map-side hash
aggregation** (``hive.map.aggr``).  Two documented Hive behaviours drive
the curves the paper reports and are modelled here:

* the aggregation hash table has bounded memory; when full it **flushes**
  its entries downstream and starts over;
* after an initial probe of the input, Hive checks the achieved reduction
  ratio (``hive.map.aggr.hash.min.reduction``, default 0.5) and **turns the
  hash aggregation off entirely** when the grouping keys are too distinct
  to compress.  Cube expansion makes keys extremely distinct on realistic
  data, so the raw ``n * 2^d`` stream usually wins — producing Hive's large
  map times (Fig 5b) and the largest intermediate data (Fig 6b), while the
  per-reducer *average* stays low (Fig 4b) because hash routing spreads the
  many small groups thinly and only skewed keys pile onto single reducers —
  the reducers the paper observed getting stuck for ``p >= 0.4`` (Fig 6a).

**Failure model (Figure 6a's missing Hive points).**  The paper reports
that Hive "got stuck as some reducers got out of memory" on gen-binomial
for ``p >= 0.4``, yet ran to completion on the Wikipedia dataset whose
*coarse* c-groups are far larger than anything in gen-binomial — so the
failure cannot be a function of per-reducer input volume or of coarse
group sizes (streaming ``count`` handles those).  What distinguishes
gen-binomial's high-``p`` regime is *identical full-width rows*: a
p-fraction of tuples whose complete dimension vector repeats ``p*n/20``
times, flooding every aggregation tier of the plan with the same keys
while the uniform tail keeps the map-side hash from compressing them.  We
model the observed failure directly and transparently: a run is marked
stuck when rows belonging to oversized *finest-cuboid* groups (full-width
duplicates larger than the per-group value buffer) exceed a third of the
input.  This is an empirical calibration of an observed behaviour, not a
first-principles mechanism; EXPERIMENTS.md discusses it.
"""

from __future__ import annotations

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
from ..relation.lattice import all_cuboids, full_mask, ordered, projector
from ..relation.relation import Relation

#: Pairs probed before deciding whether hash aggregation pays off
#: (Hive's ``hive.groupby.mapaggr.checkinterval``, scaled).
HASH_PROBE_PAIRS = 1000
#: Minimum compression (groups/pairs) the probe must achieve, as in Hive's
#: ``hive.map.aggr.hash.min.reduction`` default.
MIN_REDUCTION = 0.5
#: Fraction of physical memory one group's buffered values may occupy;
#: finest-cuboid groups beyond it count toward the stuck criterion.
VALUE_BUFFER_FRACTION = 0.75
#: Input-mass fraction of oversized full-width duplicate rows at which the
#: run is declared stuck (see module docstring).
DUPLICATE_ROW_DOMINANCE = 1.0 / 3.0


class HiveCube:
    """Hive's cube plan: grouping-set expansion + adaptive map aggregation."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        aggregate: Optional[AggregateFunction] = None,
    ):
        self.cluster = cluster or ClusterConfig()
        self.aggregate = aggregate or Count()

    @property
    def name(self) -> str:
        return "Hive"

    def compute(self, relation: Relation) -> CubeRun:
        n = len(relation)
        k = self.cluster.num_machines
        m = self.cluster.derive_memory(n)
        d = relation.schema.num_dimensions
        aggregate = self.aggregate

        # Hash capacity: the group-by operator gets a share of map memory.
        hash_capacity = max(64, m // 2)

        job = MapReduceJob(
            name="hive-cube",
            mapper_factory=TaskFactory(
                _HiveMapper, d, aggregate, hash_capacity
            ),
            reducer_factory=TaskFactory(_HiveReducer, aggregate),
            cuboid_of=cuboid_of_mask_key,
        )
        metrics = RunMetrics(algorithm=self.name)
        runner = RoundRunner(self.cluster, metrics)
        result = runner.run(job, relation.split(k), m)
        # An aborted job (retry budget exhausted) already failed and has no
        # output; the stuck criterion only applies to completed runs.
        if not result.metrics.aborted:
            result.metrics.forced_failure = self._is_stuck(relation, m)

        metrics.extras["hash_capacity"] = hash_capacity
        cube = CubeResult(relation.schema)
        cube.add_pairs(result.output)
        return CubeRun(cube=cube, metrics=runner.finish(cube))

    def _is_stuck(self, relation: Relation, memory_records: int) -> bool:
        """The calibrated failure criterion — see module docstring.

        Counts the mass of rows whose full dimension vector repeats more
        often than the per-group value buffer allows; when such duplicate
        rows dominate, the run is declared stuck.
        """
        d = relation.schema.num_dimensions
        buffer_limit = VALUE_BUFFER_FRACTION * self.cluster.physical_memory(
            memory_records
        )
        full = full_mask(d)
        sizes = relation.group_sizes(full)
        oversized_mass = sum(
            count for count in sizes.values() if count > buffer_limit
        )
        return oversized_mass > DUPLICATE_ROW_DOMINANCE * len(relation)


class _HiveMapper(Mapper):
    """Grouping-set expansion through an adaptive aggregation hash."""

    def __init__(
        self, d: int, aggregate: AggregateFunction, hash_capacity: int
    ):
        self._d = d
        self._masks = all_cuboids(d)
        self._projectors = [
            (mask, projector(mask, d)) for mask in self._masks
        ]
        self._aggregate = aggregate
        self._capacity = hash_capacity
        self._hash: Dict[Tuple[int, Tuple], object] = {}
        self._hash_enabled = True
        self._pairs_seen = 0
        self._new_keys = 0  # cumulative distinct keys, across flushes
        self._probing = True

    def map(self, record):
        d = self._d
        aggregate = self._aggregate
        measure = record[-1]
        self.context.add_cpu(1 << d)

        if not self._hash_enabled:
            for mask, get in self._projectors:
                state = aggregate.add(aggregate.create(), measure)
                yield (mask, get(record)), state
            return

        table = self._hash
        for mask, get in self._projectors:
            key = (mask, get(record))
            state = table.get(key)
            if state is None:
                state = aggregate.create()
                self._new_keys += 1
            table[key] = aggregate.add(state, measure)
            self._pairs_seen += 1

        if self._probing and self._pairs_seen >= HASH_PROBE_PAIRS:
            # Hive's min-reduction check: abandon hashing when it is not
            # compressing, flushing what was collected so far.  The ratio
            # uses the cumulative distinct-key count so interleaved
            # capacity flushes cannot mask a non-compressing key stream.
            self._probing = False
            reduction = self._new_keys / self._pairs_seen
            if reduction > MIN_REDUCTION:
                self._hash_enabled = False
                yield from self._flush()
        elif len(self._hash) >= self._capacity:
            yield from self._flush()

    def close(self):
        yield from self._flush()

    def _flush(self):
        table, self._hash = self._hash, {}
        for key in ordered(table):
            yield key, table[key]


class _HiveReducer(Reducer):
    """Merge partial states per grouping key; finalize."""

    def __init__(self, aggregate: AggregateFunction):
        self._aggregate = aggregate

    def reduce(self, key, values: List):
        aggregate = self._aggregate
        merged = aggregate.create()
        for state in values:
            merged = aggregate.merge(merged, state)
        yield key, aggregate.finalize(merged)
