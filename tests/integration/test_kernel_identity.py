"""The round-2 kernels and BUC against their oracles: named cases of the
differential harness.

The oracles — the Algorithm-3 walk, the reference reducer and
``sequential_cube`` — live in ``tests/test_differential.py`` with the
inputs they run over; each test here names an input, a property or a
hand-built corner.  Test ids predate the removal of BUC's legacy
recursion and of ``iceberg_groups``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.functions import get_aggregate
from repro.core import SPCube
from repro.core.planner import PlannerError
from repro.core.sketch import SketchError, SPSketch, build_exact_sketch
from repro.core.spcube import _CubeReducer, _PlanFunction
from repro.cubing.buc import buc_cube
from repro.cubing.naive import sequential_cube
from repro.datagen import gen_binomial, gen_zipf
from repro.mapreduce import TaskContext
from repro.observability import MemorySink, Tracer
from repro.relation.lattice import ordered

from ..conftest import iceberg_cube
from ..test_differential import (
    ENGINE_NAMES,
    FLOAT_MEASURES,
    KERNEL_AGGREGATES,
    Case,
    assert_kernel_matches_reference,
    assert_reduce_kernel_matches_reference,
    check_case,
    check_kernels,
    cluster,
    counted_sketch,
    kernel_walk,
    mapper_cases,
    reference_walk,
    relation,
    simulation,
)

#: The datasets these ids name -> the harness inputs standing in for them.
DATASETS = {
    "adversarial": "adversarial",
    "binomial": "binomial",
    "duplicate-heavy": "heavy",
    "mixed-types": "mixed-types",
    "zipf": "zipf",
}


class TestBUCKernelIdentity:
    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("agg_name", ["count", "sum", "avg"])
    def test_full_cube_matches_legacy(self, dataset, agg_name):
        check_case(Case(DATASETS[dataset], agg_name, "buc"))

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("min_support", [1, 2, 5])
    def test_iceberg_matches_legacy(self, dataset, min_support):
        """The iceberg oracle is the full count cube cut at the support."""
        counted = relation(DATASETS[dataset])
        expected = {
            key: n for key, n in sequential_cube(counted).items()
            if n >= min_support
        }
        iceberg = iceberg_cube(counted, get_aggregate("count"), min_support)
        assert dict(iceberg.items()) == expected

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_iceberg_groups_matches_legacy(self, dataset):
        """The sketch's skew table at ``m = 1`` is the iceberg of the
        groups of two or more rows, with their counts, ints next to
        strings included."""
        counted = relation(DATASETS[dataset])
        sketch = build_exact_sketch(counted, 3, 1)
        found = {
            (mask, values): n
            for mask, cuboid in sketch.cuboids.items()
            for values, n in cuboid.skewed.items()
        }
        counts = sequential_cube(counted)
        assert found == {key: n for key, n in counts.items() if n >= 2}

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TypeError):
            buc_cube(gen_binomial(50, 0.4, seed=1), kernel="array")

    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    def test_array_kernel_matches_naive_oracle(self, dataset, monkeypatch):
        """The dict partitioner, which huge segments take, on every
        refinement: the same cube and the same emission order."""
        counted, avg = relation(DATASETS[dataset]), get_aggregate("avg")
        sorted_runs = buc_cube(counted, avg)
        monkeypatch.setattr("repro.cubing.buc._SORT_MAX_SEGMENT", 0)
        dict_runs = buc_cube(counted, avg)
        assert dict_runs == sequential_cube(counted, avg)
        assert list(dict_runs.items()) == list(sorted_runs.items())

    @pytest.mark.parametrize("agg_name", ["sum", "avg"])
    def test_float_sums_match_fsum(self, agg_name):
        """Ten 0.1s sum to 1.0, ``math.fsum``'s answer, not the left
        fold's 0.9999999999999999."""
        check_case(Case("floats", agg_name, "buc"))
        assert sequential_cube(relation("floats"), get_aggregate("sum")).value(
            0b11, ("x", "p")
        ) == math.fsum([0.1] * 10) == 1.0


class TestCuboidKernelMatchesReferenceWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        case=mapper_cases(),
        agg_name=st.sampled_from(KERNEL_AGGREGATES),
        covering=st.booleans(),
        partial=st.booleans(),
        min_size=st.integers(1, 2),
    )
    def test_generated_relations(
        self, case, agg_name, covering, partial, min_size
    ):
        chunks, sketch = case
        assert_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name),
            covering=covering, partial=partial, min_size=min_size,
        )

    @pytest.mark.parametrize("dataset", ["binomial", "zipf", "duplicate-heavy"])
    def test_datasets_under_exact_sketch(self, dataset):
        check_kernels(DATASETS[dataset], "map")

    def test_empty_chunk(self):
        sketch = counted_sketch([("a", 1)] * 3, 1, 1)
        assert kernel_walk([[]], sketch, get_aggregate("sum")) == ({}, {}, 0)
        assert_kernel_matches_reference(
            [[], [("a", 2)], []], sketch, get_aggregate("sum")
        )
        check_kernels("empty", "map")

    def test_single_row(self):
        check_kernels("one-row", "map")

    def test_one_dimension(self):
        check_kernels("all-equal", "map")

    def test_six_dimensions(self):
        check_kernels("adversarial", "map")

    def test_lookalike_values_keep_first_seen_key(self):
        check_kernels("lookalikes", "map")
        check_kernels("mixed-types", "map")
        # Skewed in every cuboid: (1, "x") is first folded at the finest
        # cuboid by (True, "x", 1), so every coarser group it rolls into
        # must flush under True as well — never under a later 1 / 1.0.
        rows = relation("lookalikes").rows
        sketch = counted_sketch(rows, 2, 0)
        _runs, partials, _cpu = kernel_walk(
            [rows], sketch, get_aggregate("count")
        )
        assert repr(sorted(k for k in partials if k[0] == 0b01)) == (
            "[(1, (0,)), (1, (True,))]"
        )
        assert partials[(0b01, (1,))] == 10
        # Under an iceberg threshold the same partial carries its count.
        _runs, partials, _cpu = kernel_walk(
            [rows], sketch, get_aggregate("count"), min_size=2
        )
        assert partials[(0b01, (1,))] == (10, 10)

    def test_none_dimensions(self):
        check_kernels("none", "map")

    def test_float_measures(self):
        """Coarse partial states are merged from finer ones, so only an
        exact sum gives what the walk's one state per group gives."""
        check_kernels("floats", "map")

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


class TestReduceKernelMatchesReferenceReducer:
    @settings(max_examples=100, deadline=None)
    @given(
        case=mapper_cases(),
        agg_name=st.sampled_from(KERNEL_AGGREGATES),
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
        """Where an inexact sum would show in the last bit."""
        chunks, sketch = case
        assert_reduce_kernel_matches_reference(
            chunks, sketch, get_aggregate(agg_name), min_size,
            covering, partial,
        )

    @pytest.mark.parametrize("dataset", ["binomial", "zipf", "duplicate-heavy"])
    def test_datasets_under_exact_sketch(self, dataset):
        check_kernels(DATASETS[dataset], "reduce")

    def test_one_row_task(self):
        check_kernels("one-row", "reduce")

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
        check_kernels("lookalikes", "reduce")
        check_kernels("mixed-types", "reduce")

    def test_none_dimensions(self):
        check_kernels("none", "reduce")

    @pytest.mark.parametrize("covering", [True, False])
    @pytest.mark.parametrize("partial", [True, False])
    def test_base_cuboid_is_folded_from_the_runs_as_delivered(
        self, covering, partial
    ):
        """A base cuboid's groups are the shuffled runs themselves: keys
        as the first mapper saw them, the iceberg threshold on the run's
        length.  Four map tasks; in cuboid 0b11 the run (1, "p") takes a
        row from each (first seen as ``True``), (1, "q") from three
        (first ``1.0``), (0, "q") from two and (0, "p") from one.  Without
        covering every cuboid is its own base, so every heavy run takes
        that path."""
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
        block from several bases; float measures show an inexact sum."""
        check_kernels({5: "heavy", 6: "adversarial"}[d], "reduce")
        zipf = gen_zipf(
            120, num_values=4, num_zipf_dimensions=3,
            num_uniform_dimensions=d - 3, seed=d,
        )
        rows = [
            row[:-1] + ((0.1, 1e16, -1e16, 0.3, 2)[i % 5],)
            for i, row in enumerate(zipf.rows)
        ]
        sketch = counted_sketch(rows, d, 12)
        plan = _PlanFunction(sketch, True, True)
        covered = [len(c) for p in plan.plans_of(rows) for _, c in p.emissions]
        assert max(covered) >= 8
        assert_reduce_kernel_matches_reference(
            [rows[:50], rows[50:]], sketch, get_aggregate(agg_name), min_size
        )

    def test_plan_memo_empty_or_cleared_mid_run(self, monkeypatch):
        rows = relation("zipf").rows
        sketch = build_exact_sketch(relation("zipf"), 4, 16)
        chunks = [rows[:100], rows[100:]]
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
        run = SPCube(cluster("binomial"), get_aggregate("avg")).compute(relation)
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
                ordered(grouped),
                {key: list(rows) for key, rows in grouped.items()},
            )
            assert sum(asked) == want

    def test_a_memo_that_keeps_nothing_changes_nothing(
        self, relation, monkeypatch
    ):
        def traced_run():
            sink = MemorySink()
            traced = cluster("binomial", tracer=Tracer([sink], level="debug"))
            run = SPCube(traced, get_aggregate("avg")).compute(relation)
            return run, sink.records

        want, want_trace = traced_run()
        monkeypatch.setattr(_PlanFunction, "_MEMO_LIMIT", 7)
        got, got_trace = traced_run()
        assert list(got.cube.items()) == list(want.cube.items())
        assert simulation(got) == simulation(want)
        assert repr(got_trace) == repr(want_trace)
        assert any(record.get("kind") == "flow" for record in want_trace)


class TestEngineBackendIdentity:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    @pytest.mark.parametrize(
        "plan_name", ["map-crash", "none", "reduce-crash", "straggler"]
    )
    def test_parallel_matches_serial(self, engine_name, plan_name):
        check_case(Case("adversarial", "count", engine_name, "parallel", plan_name))
