"""Bit-identity of the round-2 hot-path kernels against their legacy oracles.

The performance layer rewrote four hot paths — the BUC kernel (sort +
run-length instead of recursive dict-of-lists), the map-side lattice
walk and the reduce-side covered-node aggregation (both cuboid-at-a-time),
and the batched parallel executor — under one invariant:
**nothing observable may change**.  Cubes, counters, pair
streams, metrics and traces must be byte-identical to what the legacy
implementations produced, serial and parallel alike.

This suite pins that invariant property-style:

* ``buc_cube`` versus ``sequential_cube`` across binomial, zipf,
  adversarial and hand-built pathological datasets (mixed orderable
  types, ``1`` vs ``True`` key conflation, duplicate-heavy rows) and
  aggregates, and the sketch's skew table and the tests' iceberg oracle
  against cube counts over the same datasets;
* the cuboid-at-a-time ``_CubeMapper`` kernel versus a per-record
  Algorithm 3 walk kept here as the oracle — every key the same value
  sequence, the same flushed partials, the same charged CPU — over
  generated relations, sketches, aggregates, ablations and chunkings;
* the cuboid-at-a-time ``_CubeReducer.reduce_runs`` kernel versus a
  per-record reducer kept here as the oracle — the same groups, values
  and keys to the bit, the same charged CPU — over the same space, with
  float measures and iceberg thresholds;
* every engine, serial versus parallel, on the adversarial dataset and
  under injected faults (the binomial/zipf sweeps live in
  ``test_executors.py``).
"""

from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.functions import get_aggregate
from repro.core import SPCube
from repro.core.planner import (
    PlannerError,
    plan_for_skew_bits,
    plan_without_covering,
)
from repro.core.sketch import (
    CuboidSketch,
    SketchError,
    SPSketch,
    build_exact_sketch,
)
from repro.core.spcube import _CubeMapper, _CubeReducer, _PlanFunction
from repro.cubing.buc import buc_cube
from repro.cubing.naive import sequential_cube
from repro.datagen import adversarial_relation, gen_binomial, gen_zipf
from repro.mapreduce import (
    NO_FAULTS,
    Block,
    ClusterConfig,
    CostModel,
    MapReduceJob,
    RetryPolicy,
    TaskContext,
    TaskFactory,
    estimate_bytes,
    pair_bytes,
)
from repro.mapreduce.engine import _ordered_keys, _ReduceTask
from repro.observability import MemorySink, Tracer
from repro.observability.tracer import LEVEL_DEBUG
from repro.relation.lattice import project
from repro.relation.relation import Relation
from repro.relation.schema import Schema

from ..conftest import iceberg_cube
from .test_executors import (
    ENGINES,
    PLANS,
    assert_runs_identical,
    make_cluster,
)


def _mixed_type_relation():
    """Rows whose dimension values defeat a plain ``sorted``: ints mixed
    with strings (TypeError -> legacy partitioner fallback) and ``1``
    alongside ``True`` (equal, distinct keys the dict build conflated)."""
    schema = Schema(["a", "b"], measure="m")
    rows = [
        (1, "x", 2),
        (True, "x", 3),
        ("one", "y", 5),
        (1, "y", 7),
        ("one", "x", 11),
        (0, "y", 13),
        (False, "x", 17),
    ]
    return Relation(schema, rows, validate=False, name="mixed-types")


def _duplicate_heavy_relation():
    """Few distinct tuples, many rows — maximal memo hit rates."""
    schema = Schema(["a", "b", "c"], measure="m")
    rows = [
        ("u", "v", "w", i % 3 + 1)
        for i in range(120)
    ] + [
        ("u", "z", "w", i % 5) for i in range(60)
    ] + [
        ("q", "v", "r", 1) for _ in range(30)
    ]
    return Relation(schema, rows, validate=False, name="duplicate-heavy")


DATASETS = {
    "binomial": lambda: gen_binomial(400, 0.3, seed=9),
    "zipf": lambda: gen_zipf(300, seed=5),
    "adversarial": lambda: adversarial_relation(4, 200, seed=3),
    "mixed-types": _mixed_type_relation,
    "duplicate-heavy": _duplicate_heavy_relation,
}


class TestBUCKernelIdentity:
    """BUC's one kernel against the oracle.  Test ids predate the removal
    of the legacy recursion and of ``iceberg_groups``; the iceberg cases
    now pin what replaced them."""

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("agg_name", ["count", "sum", "avg"])
    def test_full_cube_matches_legacy(self, dataset, agg_name):
        relation = DATASETS[dataset]()
        aggregate = get_aggregate(agg_name)
        cube = buc_cube(relation, aggregate)
        oracle = sequential_cube(relation, aggregate)
        assert cube == oracle, cube.diff(oracle)

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("min_support", [1, 2, 5])
    def test_iceberg_matches_legacy(self, dataset, min_support):
        """The iceberg oracle is the full count cube cut at the support."""
        relation = DATASETS[dataset]()
        counts = buc_cube(relation)
        expected = {key: n for key, n in counts.items() if n >= min_support}
        iceberg = iceberg_cube(relation, get_aggregate("count"), min_support)
        assert dict(iceberg.items()) == expected

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_iceberg_groups_matches_legacy(self, dataset):
        """The sketch's skew table at ``m = 1`` is the iceberg of the
        groups of two or more rows, with their counts.  Range partitions
        need values that sort: mixed types fail loudly."""
        relation = DATASETS[dataset]()
        if dataset == "mixed-types":
            with pytest.raises(TypeError):
                build_exact_sketch(relation, 3, 1)
            return
        sketch = build_exact_sketch(relation, 3, 1)
        found = {
            (mask, values): n
            for mask, cuboid in sketch.cuboids.items()
            for values, n in cuboid.skewed.items()
        }
        counts = buc_cube(relation)
        assert found == {key: n for key, n in counts.items() if n >= 2}

    def test_unknown_kernel_rejected(self):
        relation = gen_binomial(50, 0.4, seed=1)
        with pytest.raises(TypeError):
            buc_cube(relation, kernel="array")

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_array_kernel_matches_naive_oracle(self, dataset, monkeypatch):
        """The dict partitioner, which huge segments take, on every
        refinement: the same cube and the same emission order."""
        relation, avg = DATASETS[dataset](), get_aggregate("avg")
        sorted_runs = buc_cube(relation, avg)
        monkeypatch.setattr("repro.cubing.buc._SORT_MAX_SEGMENT", 0)
        dict_runs = buc_cube(relation, avg)
        assert dict_runs == sequential_cube(relation, avg)
        assert list(dict_runs.items()) == list(sorted_runs.items())

    @pytest.mark.parametrize("agg_name", ["sum", "avg"])
    def test_float_measures_are_left_folded(self, agg_name):
        """Builtin ``sum`` is compensated on Python >= 3.12 (ten 0.1s make
        1.0 there, 0.9999999999999999 as a left fold): the array kernel
        must fold like ``add`` on every interpreter of the CI matrix."""
        schema = Schema(["a", "b"], measure="m")
        rows = [("x", "p", 0.1)] * 10 + [
            ("y", "q", 1e16), ("y", "q", 1.0), ("y", "p", -1e16),
            ("x", "q", 0.3), ("y", "q", 0.7),
        ]
        relation = Relation(schema, rows, validate=False, name="floats")
        aggregate = get_aggregate(agg_name)
        array = buc_cube(relation, aggregate)
        naive = sequential_cube(relation, aggregate)
        assert array == naive, array.diff(naive)
        assert repr(dict(array.items())) == repr(
            {key: naive.value(*key) for key, _ in array.items()}
        )
        assert sequential_cube(relation, get_aggregate("sum")).value(
            0b11, ("x", "p")
        ) == 0.9999999999999999


def reference_walk(chunks, sketch, aggregate, covering=True, partial=True):
    """Algorithm 3 one record at a time, no memo: the kernel's oracle.

    Returns what a mapper hands the shuffle — ``{emission key: rows}`` and
    ``{skew key: (count, state)}``, every key as first seen — and the CPU
    it charges.
    """
    d = sketch.num_dimensions
    planner = plan_for_skew_bits if covering else plan_without_covering
    runs, partials, cpu = {}, {}, 0
    for row in (row for chunk in chunks for row in chunk):
        cpu += 1 << d
        plan = planner(sketch.skew_bits(row) if partial else 0, d)
        for mask in plan.skewed_masks:
            key = ("S", mask, project(row, mask, d))
            count, state = partials.get(key, (0, aggregate.create()))
            partials[key] = (count + 1, aggregate.add(state, row[-1]))
        for base, _covered in plan.emissions:
            runs.setdefault(("G", base, project(row, base, d)), []).append(row)
    return runs, partials, cpu


def kernel_walk(chunks, sketch, aggregate, covering=True, partial=True):
    """The same three observables from ``_CubeMapper.map_chunk`` + ``close``."""
    d = sketch.num_dimensions
    mapper = _CubeMapper(d, aggregate, _PlanFunction(sketch, covering, partial))
    context = TaskContext(0, 4, 32)
    mapper.setup(context)
    runs, records = {}, 0
    for chunk in chunks:
        count, chunk_runs = mapper.map_chunk(chunk)
        records += count
        for key, rows in chunk_runs.items():
            runs.setdefault(key, []).extend(rows)
    assert records == sum(map(len, chunks))
    return runs, dict(mapper.close()), context.extra_cpu


def assert_kernel_matches_reference(chunks, sketch, aggregate, **switches):
    want_runs, want_partials, want_cpu = reference_walk(
        chunks, sketch, aggregate, **switches
    )
    runs, partials, cpu = kernel_walk(chunks, sketch, aggregate, **switches)
    assert runs == want_runs
    assert partials == want_partials
    # == is blind to 1 / True / 1.0: the first-seen key (and with it the
    # key's shuffled byte size) must be the very one the walk saw first.
    for got, want in ((runs, want_runs), (partials, want_partials)):
        assert sorted(map(repr, got)) == sorted(map(repr, want))
        assert sum(map(estimate_bytes, got)) == sum(map(estimate_bytes, want))
    assert cpu == want_cpu


def counted_sketch(rows, d, threshold, sample_every=1):
    """A sketch whose skewed groups are those with more than ``threshold``
    rows among every ``sample_every``-th row: exact (1), sampled (>1),
    all-skewed (threshold 0) or empty (threshold >= len(rows)).  Counting
    is monotone by construction; no partition elements (mappers do not
    route)."""
    sample = rows[::sample_every]
    return SPSketch(d, 4, {
        mask: CuboidSketch({
            values: count
            for values, count in Counter(
                project(row, mask, d) for row in sample
            ).items()
            if count > threshold
        })
        for mask in range(1 << d)
    })


AGGREGATES = ["count", "sum", "avg", "min", "max", "top_k"]
#: Per-column value families; the look-alikes are equal and hash-equal.
COLUMNS = [
    st.integers(0, 2),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([1, True, 1.0, 0, False]),
    st.sampled_from([None, "x", 0]),
]


#: Measures whose sum depends on the order of the additions.
FLOAT_MEASURES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1, 2.5])


@st.composite
def mapper_cases(draw, measures=st.integers(-5, 9), min_rows=0):
    d = draw(st.integers(1, 4))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in range(d)]
    rows = draw(st.lists(
        st.tuples(*columns, measures), min_size=min_rows, max_size=40
    ))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    chunks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
    kind = draw(st.sampled_from(["exact", "sampled", "empty", "all"]))
    threshold = {"empty": len(rows), "all": 0}.get(
        kind, draw(st.integers(1, 4))
    )
    sketch = counted_sketch(
        rows, d, threshold, sample_every=2 if kind == "sampled" else 1
    )
    return chunks, sketch


class TestCuboidKernelMatchesReferenceWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        case=mapper_cases(),
        agg_name=st.sampled_from(AGGREGATES),
        covering=st.booleans(),
        partial=st.booleans(),
    )
    def test_generated_relations(self, case, agg_name, covering, partial):
        chunks, sketch = case
        assert_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name),
            covering=covering, partial=partial,
        )

    @pytest.mark.parametrize("dataset", ["binomial", "zipf", "duplicate-heavy"])
    @pytest.mark.parametrize("agg_name", AGGREGATES)
    def test_datasets_under_exact_sketch(self, dataset, agg_name):
        relation = DATASETS[dataset]()
        sketch = build_exact_sketch(relation, 4, 16)
        chunks = [
            relation.rows[start : start + 64]
            for start in range(0, len(relation.rows), 64)
        ]
        assert_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name)
        )

    def test_empty_chunk(self):
        sketch = counted_sketch([("a", 1)] * 3, 1, 1)
        assert kernel_walk([[]], sketch, get_aggregate("sum")) == ({}, {}, 0)
        assert_kernel_matches_reference(
            [[], [("a", 2)], []], sketch, get_aggregate("sum")
        )

    def test_single_row(self):
        for threshold in (0, 1):
            sketch = counted_sketch([("a", "b", 7)], 2, threshold)
            assert_kernel_matches_reference(
                [[("a", "b", 7)]], sketch, get_aggregate("avg")
            )

    def test_one_dimension(self):
        rows = [("a", 1)] * 5 + [("b", 2)] * 2 + [("c", 3)]
        assert_kernel_matches_reference(
            [rows], counted_sketch(rows, 1, 1), get_aggregate("max")
        )

    def test_six_dimensions(self):
        rows = gen_zipf(
            120, num_values=3, num_zipf_dimensions=3,
            num_uniform_dimensions=3, seed=4, measure=None,
        ).rows
        for threshold in (4, 20):
            assert_kernel_matches_reference(
                [rows[:70], rows[70:]], counted_sketch(rows, 6, threshold),
                get_aggregate("avg"),
            )

    def test_lookalike_values_keep_first_seen_key(self):
        rows = [
            (True, "x", 1), (1, "x", 2), (1.0, "y", 3), (1, "y", 4),
            (0, "x", 5), (False, "x", 6), (1.0, "x", 7),
        ]
        for threshold in (0, 1, 2, len(rows)):
            sketch = counted_sketch(rows, 2, threshold)
            assert_kernel_matches_reference(
                [rows[:3], rows[3:]], sketch, get_aggregate("sum")
            )
        # Skewed in every cuboid: (1, "x") is first folded at the finest
        # cuboid by (True, "x", 1), so every coarser group it rolls into
        # must flush under True as well — never under a later 1 / 1.0.
        _runs, partials, _cpu = kernel_walk(
            [rows], counted_sketch(rows, 2, 0), get_aggregate("count")
        )
        assert repr(sorted(k for k in partials if k[1] == 0b01)) == (
            "[('S', 1, (0,)), ('S', 1, (True,))]"
        )
        assert partials[("S", 0b01, (1,))] == (5, 5)

    def test_none_dimensions(self):
        rows = [(None, "a", 1), (None, None, 2), ("b", None, 3)] * 3
        for threshold in (0, 2, 4):
            assert_kernel_matches_reference(
                [rows], counted_sketch(rows, 2, threshold),
                get_aggregate("min"),
            )

    @pytest.mark.parametrize("covering", [True, False])
    def test_non_monotone_sketch_raises(self, covering):
        """A skewed group whose sub-group is not skewed would be emitted
        *and* rolled up — the planner must refuse the bitmap instead."""
        rows = [("a", "b", 1)] * 6
        sketch = counted_sketch(rows, 2, 1)
        del sketch.cuboids[0b01].skewed[("a",)]
        with pytest.raises(SketchError):
            sketch.validate_monotonic()
        with pytest.raises(PlannerError):
            kernel_walk(
                [rows], sketch, get_aggregate("count"), covering=covering
            )


def reference_reduce(
    grouped, sketch, aggregate, min_size=1, covering=True, partial=True
):
    """Algorithm 3's reducer one base group, one row at a time, no memo:
    the kernel's oracle.  Returns ``{group: value}`` and the CPU charged."""
    d = sketch.num_dimensions
    planner = plan_for_skew_bits if covering else plan_without_covering
    out, cpu = {}, 0
    for (tag, base, values), entries in grouped.items():
        groups = {}
        if tag == "S":
            groups[(base, values)] = (
                sum(count for count, _state in entries),
                reduce(aggregate.merge, (s for _c, s in entries),
                       aggregate.create()),
            )
        for row in entries if tag == "G" else ():
            plan = planner(sketch.skew_bits(row) if partial else 0, d)
            for mask in plan.covered_by[base]:
                cpu += 1
                key = (mask, project(row, mask, d))
                count, state = groups.get(key, (0, aggregate.create()))
                groups[key] = (count + 1, aggregate.add(state, row[-1]))
        for key, (count, state) in groups.items():
            assert key not in out  # every c-group has one home
            if count >= min_size:
                out[key] = aggregate.finalize(state)
    return out, cpu


def assert_reduce_kernel_matches_reference(
    chunks, sketch, aggregate, min_size=1, covering=True, partial=True,
    warm_memo=True,
):
    """One reduce task fed everything the mappers (one per chunk) emit."""
    grouped = {}
    for chunk in chunks:
        runs, partials, _cpu = reference_walk(
            [chunk], sketch, aggregate, covering, partial
        )
        for key, rows in runs.items():
            grouped.setdefault(key, []).extend(rows)
        for key, entry in partials.items():
            grouped.setdefault(key, []).append(entry)
    want, want_cpu = reference_reduce(
        grouped, sketch, aggregate, min_size, covering, partial
    )
    plan = _PlanFunction(sketch, covering, partial)
    if warm_memo:  # what mappers sharing the reducer's process leave behind
        for chunk in chunks:
            plan.plans_of(chunk)
    reducer = _CubeReducer(sketch.num_dimensions, aggregate, plan, min_size)
    context = TaskContext(0, 4, 32)
    reducer.setup(context)
    blocks = reducer.reduce_runs(
        _ordered_keys(grouped), {key: list(v) for key, v in grouped.items()}
    )
    assert len({block.mask for block in blocks}) == len(blocks)
    pairs = [pair for block in blocks for pair in block.pairs()]
    got = dict(pairs)
    assert len(got) == len(pairs)
    assert got == want
    # Keys as first seen (1 / True / 1.0), values to the last bit.
    assert {repr(k): repr(v) for k, v in got.items()} == {
        repr(k): repr(v) for k, v in want.items()
    }
    assert sum(map(estimate_bytes, got)) == sum(map(estimate_bytes, want))
    assert context.extra_cpu == want_cpu
    # Through the engine the blocks are counted and charged as the pairs
    # they stand for, whatever the key and value types.
    job = MapReduceJob(
        "sp-cube", None,
        TaskFactory(_CubeReducer, sketch.num_dimensions, aggregate, plan, min_size),
    )
    task, output = _ReduceTask(
        job, 0, [grouped], sum(map(len, grouped.values())), 0, 1 << 30, 4, 32,
        CostModel(), NO_FAULTS, RetryPolicy(),
    )._attempt()
    assert all(type(block) is Block for block in output)
    assert repr(sorted(output)) == repr(sorted(blocks))
    assert task.records_out == len(pairs)
    assert task.bytes_out == sum(pair_bytes(*pair) for pair in pairs)


class TestReduceKernelMatchesReferenceReducer:
    @settings(max_examples=100, deadline=None)
    @given(
        case=mapper_cases(),
        agg_name=st.sampled_from(AGGREGATES),
        min_size=st.integers(1, 3),
        covering=st.booleans(),
        partial=st.booleans(),
        warm_memo=st.booleans(),
    )
    def test_generated_relations(
        self, case, agg_name, min_size, covering, partial, warm_memo
    ):
        chunks, sketch = case
        assert_reduce_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name), min_size,
            covering, partial, warm_memo,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        case=mapper_cases(FLOAT_MEASURES, min_rows=6),
        agg_name=st.sampled_from(["sum", "avg"]),
        min_size=st.integers(1, 3),
        covering=st.booleans(),
        partial=st.booleans(),
    )
    def test_generated_float_relations(
        self, case, agg_name, min_size, covering, partial
    ):
        """Where the order of the additions shows in the last bit."""
        chunks, sketch = case
        assert_reduce_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name), min_size,
            covering, partial,
        )

    @pytest.mark.parametrize("dataset", ["binomial", "zipf", "duplicate-heavy"])
    @pytest.mark.parametrize("agg_name", AGGREGATES)
    def test_datasets_under_exact_sketch(self, dataset, agg_name):
        relation = DATASETS[dataset]()
        sketch = build_exact_sketch(relation, 4, 16)
        chunks = [relation.rows[:150], relation.rows[150:]]
        for min_size in (1, 2):
            assert_reduce_kernel_matches_reference(
                chunks, sketch, get_aggregate(agg_name), min_size
            )

    def test_one_row_task(self):
        for threshold in (0, 1):
            assert_reduce_kernel_matches_reference(
                [[("a", "b", 0.5)]], counted_sketch([("a", "b", 1)], 2, threshold),
                get_aggregate("avg"),
            )

    def test_every_base_group_a_singleton(self):
        rows = [(i, str(i), i / 7) for i in range(12)]
        for min_size in (1, 2):
            assert_reduce_kernel_matches_reference(
                [rows], counted_sketch(rows, 2, 0), get_aggregate("sum"),
                min_size, covering=False,
            )

    def test_one_base_group_holds_every_row(self):
        rows = [("a", "b", 0.1 * i) for i in range(11)]
        sketch = counted_sketch(rows, 2, len(rows))  # nothing skewed
        for agg_name in ("sum", "avg", "top_k"):
            assert_reduce_kernel_matches_reference(
                [rows[:4], rows[4:]], sketch, get_aggregate(agg_name)
            )

    def test_rows_repeated_verbatim(self):
        rows = [("a", "b", 0.1)] * 10 + [("a", "c", 0.1)] * 3 + [("d", "b", 2)]
        for threshold in (2, 5, len(rows)):
            for min_size in (1, 2, 4):
                assert_reduce_kernel_matches_reference(
                    [rows[:7], rows[7:]], counted_sketch(rows, 2, threshold),
                    get_aggregate("sum"), min_size,
                )

    def test_lookalikes_across_two_base_groups_of_one_cuboid(self):
        # With ("x",) skewed, cuboid 0b10 is a base covering 0b11: its
        # base groups ("p",) and ("q",) each hold 1 / True / 1.0 rows.
        rows = [
            (True, "p", 0.1), (1, "q", 0.2), (1.0, "p", 0.3), (0, "q", 0.4),
            (1, "p", 0.5), (False, "q", 0.6), (1.0, "q", 0.7), (0, "p", 0.8),
        ]
        for threshold in (0, 2, 3, len(rows)):
            for agg_name in ("sum", "count", "top_k"):
                assert_reduce_kernel_matches_reference(
                    [rows[:3], rows[3:]], counted_sketch(rows, 2, threshold),
                    get_aggregate(agg_name),
                )

    def test_none_dimensions(self):
        rows = [(None, "a", 1), (None, None, 2.5), ("b", None, 3)] * 3
        for threshold in (0, 2, 4):
            assert_reduce_kernel_matches_reference(
                [rows], counted_sketch(rows, 2, threshold),
                get_aggregate("min"),
            )

    @pytest.mark.parametrize("covering", [True, False])
    @pytest.mark.parametrize("partial", [True, False])
    def test_base_cuboid_is_folded_from_the_runs_as_delivered(
        self, covering, partial
    ):
        """A base cuboid's groups are the shuffled runs themselves: keys
        as the first mapper saw them, floats left-folded in arrival
        order, the iceberg threshold on the run's length.  Four map
        tasks; in cuboid 0b11 the run (1, "p") takes a row from each
        (first seen as ``True``), (1, "q") from three (first ``1.0``),
        (0, "q") from two and (0, "p") from one.  Without covering every
        cuboid is its own base, so every heavy run takes that path."""
        rows = [
            (True, "p", 0.1), (0, "q", 0.2),
            (1, "p", 0.3), (1.0, "q", 0.7),
            (1.0, "p", 1e16), (1, "q", -1e16), (False, "q", 2.5),
            (True, "q", 0.1), (0, "p", 0.2), (1, "p", 0.3),
        ]
        chunks = [rows[:2], rows[2:4], rows[4:7], rows[7:]]
        for threshold in (0, 2, 3, len(rows)):
            sketch = counted_sketch(rows, 2, threshold)
            for agg_name in ("sum", "avg"):
                for min_size in (1, 2, 3):
                    assert_reduce_kernel_matches_reference(
                        chunks, sketch, get_aggregate(agg_name), min_size,
                        covering, partial,
                    )

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("agg_name", ["count", "sum", "avg"])
    @pytest.mark.parametrize("min_size", [1, 3])
    def test_wide_lattices_cover_many_cuboids_per_base(
        self, d, agg_name, min_size
    ):
        """At d = 5 and 6 a base covers up to 2^d - 1 cuboids, so a task
        folds, filters and appends to many blocks per base and to one
        block from several bases; float measures show the fold order."""
        relation = gen_zipf(
            120, num_values=4, num_zipf_dimensions=3,
            num_uniform_dimensions=d - 3, seed=d,
        )
        rows = [
            row[:-1] + ((0.1, 1e16, -1e16, 0.3, 2)[i % 5],)
            for i, row in enumerate(relation.rows)
        ]
        sketch = counted_sketch(rows, d, 12)
        plan = _PlanFunction(sketch, True, True)
        covered = [len(c) for p in plan.plans_of(rows) for _, c in p.emissions]
        assert max(covered) >= 8
        assert_reduce_kernel_matches_reference(
            [rows[:50], rows[50:]], sketch, get_aggregate(agg_name), min_size
        )

    def test_plan_memo_empty_or_cleared_mid_run(self, monkeypatch):
        relation = DATASETS["zipf"]()
        sketch = build_exact_sketch(relation, 4, 16)
        chunks = [relation.rows[:150], relation.rows[150:]]
        assert_reduce_kernel_matches_reference(  # fresh: nothing memoised
            chunks, sketch, get_aggregate("avg"), warm_memo=False
        )
        monkeypatch.setattr(_PlanFunction, "_MEMO_LIMIT", 7)
        for warm_memo in (True, False):
            assert_reduce_kernel_matches_reference(
                chunks, sketch, get_aggregate("avg"), warm_memo=warm_memo
            )


class TestSketchAskedOncePerDistinctTuple:
    """Work counted, not timed: both round-2 kernels learn plans memo
    first, so the sketch is tested once per distinct dimension tuple."""

    @pytest.fixture
    def relation(self):
        relation = gen_zipf(600, num_values=4, seed=5, measure=None)
        assert 2 * len(set(self.dimension_tuples(relation.rows))) < 600
        return relation

    @staticmethod
    def dimension_tuples(rows):
        return [row[:-1] for row in rows]

    @pytest.fixture
    def asked(self, monkeypatch):
        """The size of every batch handed to ``SPSketch.skew_bits_of``."""
        sizes, real = [], SPSketch.skew_bits_of

        def counting(sketch, rows):
            sizes.append(len(rows))
            return real(sketch, rows)

        monkeypatch.setattr(SPSketch, "skew_bits_of", counting)
        return sizes

    def test_cube_round_asks_once_per_distinct_tuple(self, relation, asked):
        run = SPCube(make_cluster(), get_aggregate("avg")).compute(relation)
        assert run.sketch.num_skewed
        assert run.cube == sequential_cube(relation, get_aggregate("avg"))
        assert sum(asked) == len(set(self.dimension_tuples(relation.rows)))

    def test_second_reduce_over_the_same_rows_asks_nothing(
        self, relation, asked
    ):
        aggregate = get_aggregate("avg")
        sketch = build_exact_sketch(relation, 4, 16)
        grouped, _partials, _cpu = reference_walk(
            [relation.rows], sketch, aggregate
        )
        shuffled = [row for rows in grouped.values() for row in rows]
        plan = _PlanFunction(sketch, True, True)
        for want in (len(set(self.dimension_tuples(shuffled))), 0):
            assert want < len(shuffled)
            reducer = _CubeReducer(sketch.num_dimensions, aggregate, plan)
            reducer.setup(TaskContext(0, 4, 32))
            del asked[:]
            reducer.reduce_runs(
                _ordered_keys(grouped),
                {key: list(rows) for key, rows in grouped.items()},
            )
            assert sum(asked) == want

    def test_a_memo_that_keeps_nothing_changes_nothing(
        self, relation, monkeypatch
    ):
        def traced_run():
            sink = MemorySink()
            cluster = ClusterConfig(
                num_machines=4, memory_records=64,
                tracer=Tracer([sink], level=LEVEL_DEBUG),
            )
            run = SPCube(cluster, get_aggregate("avg")).compute(relation)
            return run, sink.records

        want, want_trace = traced_run()
        monkeypatch.setattr(_PlanFunction, "_MEMO_LIMIT", 7)
        got, got_trace = traced_run()
        assert list(got.cube.items()) == list(want.cube.items())
        assert_runs_identical(want, got)
        assert repr(got_trace) == repr(want_trace)
        assert any(record.get("kind") == "flow" for record in want_trace)


class TestEngineBackendIdentity:
    """Serial vs parallel on the adversarial dataset, incl. faults —
    completing test_executors.py's binomial/zipf sweeps."""

    @pytest.fixture(scope="class")
    def adversarial(self):
        return adversarial_relation(4, 300, seed=17)

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_parallel_matches_serial(
        self, adversarial, engine_name, plan_name
    ):
        engine_cls = ENGINES[engine_name]
        serial = engine_cls(make_cluster(PLANS[plan_name])).compute(
            adversarial
        )
        parallel = engine_cls(
            make_cluster(PLANS[plan_name], parallelism=3)
        ).compute(adversarial)
        assert_runs_identical(serial, parallel)
