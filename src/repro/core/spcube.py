"""SP-Cube — the paper's algorithm (Section 5), in two MapReduce rounds.

**Round 1** (Algorithm 2): every mapper Bernoulli-samples its input chunk
with probability ``alpha = ln(nk)/m``; the single reducer builds the
SP-Sketch from the sample and publishes it on the DFS, from where every
machine of round 2 caches it in memory.

**Round 2** (Algorithm 3): mappers traverse each tuple's lattice bottom-up
(BFS); skewed c-groups are partially aggregated in mapper memory and
flushed to reducer 0 at close; for each first-unmarked non-skewed c-group
the full tuple is emitted to the reducer owning that group's lexicographic
range partition, and the group's ancestors are marked (the reducer derives
them locally).  Reducer 0 merges the skew partial aggregates; reducers
``1..k`` aggregate each received base group and all the lattice nodes it
covers.

Ablation switches (all default to the paper's configuration):

* ``map_partial_aggregation=False`` — skewed groups are no longer
  pre-aggregated; they flow through the normal emission path (design
  choice 4 in DESIGN.md).
* ``ancestor_covering=False`` — every non-skewed node is emitted
  individually instead of being derived from a covering descendant
  (design choice 3).
* ``range_partitioning=False`` — base groups are hash-routed instead of
  range-routed (design choice 5).
* ``use_exact_sketch=True`` — round 1 is replaced by the utopian sketch
  (exact skews/partitions); useful for tests and for isolating sampling
  error.

Extension beyond the paper: ``min_group_size`` computes an *iceberg* cube
— only c-groups with at least that many contributing tuples are output.
Mappers carry exact counts next to the partial states, so filtering is
exact on both the skewed path (reducer 0) and the covered path: the
output is the full cube's groups of at least that size, bit-for-bit.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from typing import Dict, List, Optional, Tuple

from .._gc import paused_gc
from ..aggregates.classify import check_spcube_support
from ..aggregates.functions import AggregateFunction, Count
from ..cubing.result import CubeResult
from ..interface import CubeRun
from ..mapreduce.checkpoint import RoundRunner
from ..mapreduce.cluster import ClusterConfig
from ..mapreduce.dfs import DistributedFileSystem
from ..mapreduce.engine import (
    Mapper,
    MapReduceJob,
    Reducer,
    TaskFactory,
    stable_hash,
)
from ..mapreduce.metrics import RunMetrics
from ..mapreduce.sizes import Block
from ..observability.tracer import LEVEL_DEBUG, NULL_TRACER, emit_run_span
from ..relation.lattice import bfs_order, project_rows, projector
from ..relation.relation import Relation
from .planner import (
    TuplePlan,
    plan_for_skew_bits,
    plan_without_covering,
    replay_routing,
)
from .sampling import (
    _SampleMapper,
    sampling_probability,
    skew_sample_threshold,
)
from .sketch import SPSketch, build_exact_sketch, build_sketch_from_sample

#: Key tags distinguishing the two reduce-side streams of Algorithm 3.
_SKEW_TAG = "S"
_GROUP_TAG = "G"


def _spcube_cuboid_of(key):
    """Cuboid (lattice mask) of a round-2 ``(tag, mask, values)`` key;
    both streams carry the mask second."""
    return key[1]

#: DFS path under which round 1 publishes the sketch.
SKETCH_PATH = "spcube/sketch"

_MEASURE = itemgetter(-1)


class SPCube:
    """The SP-Cube engine.  See module docstring for the knobs."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        aggregate: Optional[AggregateFunction] = None,
        *,
        allow_holistic: bool = False,
        use_exact_sketch: bool = False,
        beta: Optional[float] = None,
        map_partial_aggregation: bool = True,
        ancestor_covering: bool = True,
        range_partitioning: bool = True,
        min_group_size: int = 1,
        dfs: Optional[DistributedFileSystem] = None,
    ):
        self.cluster = cluster or ClusterConfig()
        self.aggregate = aggregate or Count()
        check_spcube_support(self.aggregate, allow_holistic)
        self.use_exact_sketch = use_exact_sketch
        self.beta = beta
        self.map_partial_aggregation = map_partial_aggregation
        self.ancestor_covering = ancestor_covering
        self.range_partitioning = range_partitioning
        if min_group_size < 1:
            raise ValueError("min_group_size must be >= 1")
        self.min_group_size = min_group_size
        # Explicit None check: an empty DFS is falsy (it has __len__).
        self.dfs = (
            dfs
            if dfs is not None
            else DistributedFileSystem(topology=self.cluster.topology())
        )

    @property
    def name(self) -> str:
        return "SP-Cube"

    # -- public API -------------------------------------------------------------

    def compute(self, relation: Relation) -> CubeRun:
        """Compute the full cube of ``relation`` (both rounds).

        Runs with cyclic GC paused end to end (see
        :func:`~repro._gc.paused_gc`): the rounds *and* the
        driver-side assembly (cube building, DFS output) allocate
        cycle-free data by the million, and re-enabling the collector
        between phases just buys repeated full scans of the live cube.
        """
        with paused_gc():
            return self._compute(relation)

    def _compute(self, relation: Relation) -> CubeRun:
        n = len(relation)
        k = self.cluster.num_machines
        m = self.cluster.derive_memory(n)
        metrics = RunMetrics(algorithm=self.name)
        tracer = self.cluster.tracer or NULL_TRACER
        run_base = tracer.clock
        # Rounds run through the checkpoint/recovery layer: a node loss
        # resumes from the last completed round instead of killing the
        # run.  The runner owns metrics.jobs appends and shares this
        # engine's DFS so checkpoints lose replicas with dead nodes.
        runner = RoundRunner(
            self.cluster, metrics, dfs=self.dfs, run_id="spcube"
        )

        sketch = self._round_one(relation, n, k, m, metrics, runner)
        if metrics.jobs and metrics.jobs[-1].aborted:
            # Round 1 exhausted a task's retry budget: the driver aborts
            # the run before the cube round, as a real JobTracker would.
            emit_run_span(tracer, metrics, run_base, dfs=self.dfs)
            return CubeRun(
                cube=CubeResult(relation.schema), metrics=metrics,
                sketch=sketch,
            )
        self.dfs.write(SKETCH_PATH, [sketch.to_payload()])
        summary = sketch.to_dict()
        metrics.extras["sketch_bytes"] = summary["serialized_bytes"]
        metrics.extras["num_skewed_groups"] = summary["num_skewed"]
        if tracer.enabled:
            fields = {
                "bytes": summary["serialized_bytes"],
                "skewed_groups": summary["num_skewed"],
                "partition_elements": summary["num_partition_elements"],
                "sample_size": metrics.extras.get("sample_size", 0),
            }
            if self.range_partitioning:
                # The sketch's promise for round 2 — the Prop 4.2(2)
                # band the watchdog holds "sp-cube" to.  Hash-routed
                # ablations make none: the prediction replays range
                # routing, which no longer matches.
                promise = {"job": "sp-cube", "n": n, "k": k, "m": m}
                if tracer.level >= LEVEL_DEBUG:
                    predicted, _, _ = replay_routing(relation, sketch, k)
                    promise["predicted"] = {
                        str(reducer): load
                        for reducer, load in predicted.items()
                    }
                fields["promise"] = promise
            tracer.event(
                "sketch", at=tracer.clock, job="sp-sketch", fields=fields
            )

        cube = self._round_two(relation, sketch, k, m, metrics, runner)
        metrics.output_groups = cube.num_groups
        emit_run_span(tracer, metrics, run_base, dfs=self.dfs)
        return CubeRun(cube=cube, metrics=metrics, sketch=sketch)

    # -- round 1: sketch ---------------------------------------------------------

    def _round_one(
        self,
        relation: Relation,
        n: int,
        k: int,
        m: int,
        metrics: RunMetrics,
        runner: RoundRunner,
    ) -> SPSketch:
        d = relation.schema.num_dimensions
        if self.use_exact_sketch:
            metrics.extras["sketch_mode"] = "exact"
            return build_exact_sketch(relation, k, m)

        alpha = sampling_probability(n, k, m)
        beta = (
            self.beta
            if self.beta is not None
            else skew_sample_threshold(n, k)
        )
        seed = self.cluster.seed

        job = MapReduceJob(
            name="sp-sketch",
            mapper_factory=TaskFactory(_SampleMapper, alpha, seed),
            reducer_factory=TaskFactory(_SketchReducer, d, k, beta),
            num_reducers=1,
        )
        result = runner.run(job, relation.split(k), m)

        if result.output:
            sketch = result.output[0][1]
        else:
            # Empty sample (tiny input) or aborted round: a blank sketch
            # is still valid — nothing is skewed, everything routes to
            # partition 0.
            sketch = build_sketch_from_sample([], d, k, beta)
        metrics.extras["alpha"] = alpha
        metrics.extras["beta"] = beta
        metrics.extras["sample_size"] = metrics.jobs[-1].map_output_records
        return sketch

    # -- round 2: cube ------------------------------------------------------------

    def _round_two(
        self,
        relation: Relation,
        sketch: SPSketch,
        k: int,
        m: int,
        metrics: RunMetrics,
        runner: RoundRunner,
    ) -> CubeResult:
        d = relation.schema.num_dimensions
        aggregate = self.aggregate

        plan = self._plan_factory(sketch)
        partitioner = _CubePartitioner(sketch, k, self.range_partitioning)

        min_size = self.min_group_size
        job = MapReduceJob(
            name="sp-cube",
            mapper_factory=TaskFactory(_CubeMapper, d, aggregate, plan),
            reducer_factory=TaskFactory(
                _CubeReducer, d, aggregate, plan, min_size
            ),
            num_reducers=k + 1,
            partitioner=partitioner,
            cuboid_of=_spcube_cuboid_of,
        )
        result = runner.run(job, relation.split(k), m)
        if result.metrics.aborted:
            return CubeResult(relation.schema)

        # The round's output is one block per (reducer, cuboid).  Each
        # cuboid's blocks are joined into one, which the cube keeps and
        # which is the cuboid's DFS file — one per cuboid, as Section 3.1
        # describes — so the two share a single pair of lists.
        by_mask: Dict[int, List[Block]] = {}
        for block in result.output:
            by_mask.setdefault(block.mask, []).append(block)
        cube = CubeResult(relation.schema)
        for mask, blocks in by_mask.items():
            _, groups, values = zip(*blocks)
            block = Block(mask, list(chain(*groups)), list(chain(*values)))
            cube.add_block(*block)
            if block.groups:
                self.dfs.write(f"spcube/cube/cuboid-{mask}", [block])
        return cube

    def _plan_factory(self, sketch: SPSketch) -> "_PlanFunction":
        """Per-tuple plan function honouring the ablation switches."""
        return _PlanFunction(
            sketch, self.ancestor_covering, self.map_partial_aggregation
        )


class _PlanFunction:
    """Plan lookup honouring the ablation switches.

    Plans are memoized per distinct *dimension tuple* — the one memo of
    round 2.  ``skew_bits`` is a pure, equality-respecting function of
    the dimension values (its probes are dict-membership tests of
    projections), so equal tuples always get the same plan and the memo
    can change neither plans nor anything downstream.  Both kernels ask
    :meth:`plans_of`, memo first: a tuple any earlier task has seen costs
    one probe, and only the distinct unseen ones reach the sketch
    (:meth:`_plan_unseen`).  It is shared by every task of the round —
    interleaved threads included: each access is one dict operation, and
    a ``clear`` under a reader only turns hits into misses, which are
    re-planned — so it must never feed *per-task* observables (counters,
    metrics): its hit pattern depends on task order, which the
    simulation does not model.
    """

    __slots__ = ("_sketch", "_d", "_dims", "_planner", "_partial", "_memo")

    _MEMO_LIMIT = 1 << 17

    def __init__(
        self, sketch: SPSketch, ancestor_covering: bool,
        map_partial_aggregation: bool,
    ):
        self._sketch = sketch
        self._planner = (
            plan_for_skew_bits if ancestor_covering else plan_without_covering
        )
        self._partial = map_partial_aggregation
        self._d = sketch.num_dimensions
        self._dims = itemgetter(slice(self._d))
        self._memo: Dict[tuple, TuplePlan] = {}

    def _plan_unseen(self, tuples: List[tuple]) -> Dict[tuple, TuplePlan]:
        """The miss path: each distinct dimension tuple's plan (remembered)
        — skew bitmaps column-wise, one plan per distinct bitmap."""
        if self._partial:
            bits = self._sketch.skew_bits_of(tuples)
        else:
            bits = [0] * len(tuples)
        plan, d = self._planner, self._d
        by_bitmap = {bitmap: plan(bitmap, d) for bitmap in set(bits)}
        planned = dict(zip(tuples, map(by_bitmap.get, bits)))
        memo = self._memo
        if len(memo) + len(planned) > self._MEMO_LIMIT:
            memo.clear()
        memo.update(planned)
        return planned

    def plans_of(self, rows) -> List[TuplePlan]:
        """Each row's plan, from one bulk probe of the memo; the tuples
        it does not hold are planned once each."""
        dims = self._dims
        plans = list(map(self._memo.get, map(dims, rows)))
        if None in plans:
            missed = compress(rows, map(is_, plans, repeat(None)))
            planned = self._plan_unseen(list(dict.fromkeys(map(dims, missed))))
            plans = list(map(planned.get, map(dims, rows), plans))
        return plans


class _CubePartitioner:
    """Algorithm 3's routing: skew stream to reducer 0, base groups to
    their sketch range partition (or a stable hash under the ablation).
    The engine calls it once per run, so a lookup is one short bisect."""

    __slots__ = ("_sketch", "_k", "_range_partitioning")

    def __init__(self, sketch: SPSketch, k: int, range_partitioning: bool):
        self._sketch = sketch
        self._k = k
        self._range_partitioning = range_partitioning

    def __call__(self, key, num_reducers: int) -> int:
        tag, mask, values = key
        if tag == _SKEW_TAG:
            return 0
        if self._range_partitioning:
            return 1 + self._sketch.partition_of(mask, values)
        return 1 + stable_hash((mask, values)) % self._k


class _SketchReducer(Reducer):
    """Round 1 reduce (Algorithm 2 lines 7-10): build the sketch in memory.

    The sketch is returned through the round's output pairs — the normal
    MapReduce data path.
    """

    def __init__(self, d: int, k: int, beta: float):
        self._d = d
        self._k = k
        self._beta = beta

    def reduce(self, key, values):
        sample = values
        # Charge the in-memory sketch build: one lattice walk per sampled row.
        self.context.add_cpu(len(sample) * (1 << self._d))
        sketch = build_sketch_from_sample(sample, self._d, self._k, self._beta)
        yield key, sketch


class _CubeMapper(Mapper):
    """Round 2 map (Algorithm 3 lines 2-20), one cuboid at a time.

    The paper walks each tuple's lattice; this is the loop interchange.
    The plan function answers the chunk memo first — only dimension
    tuples no earlier task has seen are tested against the sketch — and
    the chunk is partitioned by plan; then each base cuboid projects its
    emitting rows with one C-level ``map`` and groups them by key in
    chunk order — the runs the engine shuffles — so every key carries
    the value sequence the per-tuple walk would give it.

    A row is folded into the partial aggregate of skewed cuboid ``M``
    only where the roll-up chain ends: ``M``'s *refinement* ``M | lowest
    absent dimension`` is not among its plan's skewed cuboids.
    :meth:`close` rebuilds every coarser skewed group by merging its
    refinement's groups into it, finest cuboid first.  That is exact
    because skew is downward monotone: the rows of a skewed group split,
    by their value on the refining dimension, into skewed refinements
    (whose totals are merged in) and rows folded directly — each row
    counted once — and it is the ``merge`` reducer 0 already applies to
    per-mapper partials.  A bitmap that is not monotone never gets here
    (the planner raises).  Each partial remembers its first contributing
    row, so a group is flushed under the key the per-tuple walk would
    have seen first.
    """

    def __init__(self, d: int, aggregate: AggregateFunction, plan):
        self._d = d
        self._aggregate = aggregate
        self._plan = plan
        #: cuboid -> {group values: [count, state, first contributing row]}
        self._partials: Dict[int, Dict[Tuple, List]] = {}
        self._rows: List[Tuple] = []  # every row mapped, in order

    def map_chunk(self, chunk):
        d = self._d
        # One lattice-node visit per cuboid per row, as in the BFS walk.
        self.context.add_cpu(len(chunk) << d)
        plans = self._plan.plans_of(chunk)
        distinct = dict.fromkeys(plans)
        emitting: Dict[int, set] = {}  # base cuboid -> plans emitting it
        folding: Dict[int, set] = {}  # skewed cuboid -> plans folded there
        for plan in distinct:
            for base, _covered in plan.emissions:
                emitting.setdefault(base, set()).add(plan)
            for mask in plan.skewed_masks:
                if (mask | mask + 1) not in plan.skewed_masks:
                    folding.setdefault(mask, set()).add(plan)

        def grouped(mask, members) -> Dict[Tuple, List]:
            """The rows planned by ``members``, by ``mask`` c-group."""
            rows = chunk
            if len(members) < len(distinct):
                rows = list(compress(chunk, map(members.__contains__, plans)))
            groups = defaultdict(list)
            for values, row in zip(project_rows(rows, mask, d), rows):
                groups[values].append(row)
            return groups

        runs: Dict[Tuple, List] = {}
        for base, members in emitting.items():
            for values, rows in grouped(base, members).items():
                runs[(_GROUP_TAG, base, values)] = rows
        if folding:
            self._rows += chunk
        create, fold = self._aggregate.create, self._aggregate.fold
        for mask, members in folding.items():
            partials = self._partials.setdefault(mask, {})
            for values, rows in grouped(mask, members).items():
                acc = partials.get(values)
                if acc is None:
                    acc = partials[values] = [0, create(), rows[0]]
                acc[0] += len(rows)
                acc[1] = fold(acc[1], list(map(_MEASURE, rows)))
        return len(chunk), runs

    def close(self):
        """Roll the partials up, then flush them (lines 16-20)."""
        d = self._d
        partials = self._partials
        merge = self._aggregate.merge
        rows = self._rows
        # Where each row object first appeared (walked backwards, so the
        # earliest position is written last and wins).
        first_at = dict(zip(map(id, reversed(rows)), range(len(rows))[::-1]))
        for mask in reversed(bfs_order(d)):  # finest cuboid first
            refined = partials.get(mask | mask + 1)
            if not refined:
                continue
            dim = (mask + 1 & ~mask).bit_length() - 1  # the refining one
            coarse = partials.setdefault(mask, {})
            for values, acc in refined.items():
                group = values[:dim] + values[dim + 1 :]
                into = coarse.get(group)
                if into is None:
                    coarse[group] = list(acc)
                    continue
                into[0] += acc[0]
                into[1] = merge(into[1], acc[1])
                if first_at[id(acc[2])] < first_at[id(into[2])]:
                    into[2] = acc[2]
        for mask, groups in partials.items():
            get = projector(mask, d)
            for count, state, row in groups.values():
                yield (_SKEW_TAG, mask, get(row)), (count, state)


class _CubeReducer(Reducer):
    """Round 2 reduce (Algorithm 3 lines 23-31), one cuboid at a time.

    The mapper's loop interchange again (DESIGN.md §13.2).  The base
    groups of one base cuboid are concatenated; every (base, covered
    cuboid) pair selects the rows whose plan covers it, projects them
    with one C-level ``map``, groups them by projection and folds each
    group once — except the base cuboid itself, whose groups are the
    runs the shuffle delivered, folded as they came.  That equals
    aggregating base group by base group: a covered group's projection
    onto the base cuboid *is* its base group, so covered groups of
    different base groups are disjoint, and rows keep their arrival
    order inside every group — the same left fold, floats included,
    under the same first-seen key.  Rows of one-row base groups, the
    bulk of a sparse cube, skip the grouping: each is its own group in
    every cuboid it covers.
    """

    def __init__(
        self,
        d: int,
        aggregate: AggregateFunction,
        plan,
        min_group_size: int = 1,
    ):
        self._d = d
        self._aggregate = aggregate
        self._plan = plan
        self._min_group_size = min_group_size

    def reduce_runs(self, keys, runs):
        d, min_size = self._d, self._min_group_size
        fold_groups = self._aggregate.fold_groups
        out: Dict[int, Block] = {}  # cuboid -> this task's block of it

        def emit(mask, groups, values):  # a Block, a 3-tuple, is truthy
            block = out.get(mask) or out.setdefault(mask, Block(mask, [], []))
            block.groups.extend(groups)
            block.values.extend(values)

        # Per base cuboid: the rows of one-row base groups, and the heavier
        # runs as the shuffle delivered them, {group values: rows}.
        single, heavy = defaultdict(list), defaultdict(dict)
        for key in keys:
            rows = runs[key]
            if key[0] == _SKEW_TAG:
                self._reduce_skewed(key, rows, emit)
            elif len(rows) > 1:
                heavy[key[1]][key[2]] = rows
            else:
                single[key[1]] += rows
        for base, rows in single.items():
            if min_size > 1:  # all under the iceberg threshold: charge only
                plans = self._plan.plans_of(rows)
                charged = sum(len(plan.covered_by[base]) for plan in plans)
                self.context.add_cpu(charged)
                continue
            # Alone in every group it covers: each row's own aggregate.
            own = fold_groups(zip(map(_MEASURE, rows)))
            for mask, chosen, values in self._covered(base, rows, own):
                emit(mask, project_rows(chosen, mask, d), values)
        for base, base_runs in heavy.items():
            rows = list(chain.from_iterable(base_runs.values()))
            measures = list(map(_MEASURE, rows))
            for mask, chosen, values in self._covered(base, rows, measures):
                if mask == base:  # already grouped: fold each run as it came
                    groups = {
                        group: list(map(_MEASURE, run))
                        for group, run in base_runs.items()
                    }
                else:
                    groups = defaultdict(list)
                    for group, value in zip(
                        project_rows(chosen, mask, d), values
                    ):
                        groups[group].append(value)
                if min_size > 1:
                    groups = {
                        g: v for g, v in groups.items() if len(v) >= min_size
                    }
                emit(mask, groups, fold_groups(groups.values()))
        return list(out.values())

    def _reduce_skewed(self, key, entries, emit):
        """Merge per-mapper partial aggregates of one skewed c-group.

        Each entry is a ``(count, state)`` pair; the exact count supports
        iceberg filtering and protects against a borderline sample having
        flagged a group that is actually below the iceberg threshold.
        """
        _tag, mask, values = key
        aggregate = self._aggregate
        total = 0
        merged = aggregate.create()
        for count, state in entries:
            total += count
            merged = aggregate.merge(merged, state)
        if total >= self._min_group_size:
            emit(mask, (values,), (aggregate.finalize(merged),))

    def _covered(self, base: int, rows: List, values: List):
        """``(covered cuboid, the rows covering it, their values)`` for the
        base groups in ``rows`` — the paper's "compute BUC over ancestors",
        the ancestors being those the shared marking plan assigns to this
        base; charges one CPU op per (row, covered node)."""
        plans = self._plan.plans_of(rows)
        covering: Dict[int, set] = {}  # covered cuboid -> plans covering it
        distinct = dict.fromkeys(plans)
        for plan in distinct:
            for mask in plan.covered_by[base]:
                covering.setdefault(mask, set()).add(plan)
        for mask, covered_by in covering.items():
            if len(covered_by) < len(distinct):
                selector = list(map(covered_by.__contains__, plans))
                chosen = list(compress(rows, selector))
                self.context.add_cpu(len(chosen))
                yield mask, chosen, list(compress(values, selector))
            else:
                self.context.add_cpu(len(rows))
                yield mask, rows, values
