"""Sequential algorithms: oracle semantics, BUC, cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Average, Count, Max, Min, Sum
from repro.cubing import buc_cube, iceberg_groups, sequential_cube
from repro.relation import Relation, Schema

from ..conftest import make_random_relation


class TestOracleSemantics:
    def test_running_example_counts(self, retail_relation):
        cube = sequential_cube(retail_relation)
        # (laptop, *, *): three laptop rows.
        assert cube.value(0b001, ("laptop",)) == 3
        # (*, *, *): all rows.
        assert cube.value(0, ()) == 10
        # (keyboard, Rome, 2009): two rows.
        assert cube.value(0b111, ("keyboard", "Rome", 2009)) == 2

    def test_sum_aggregate(self, retail_relation):
        cube = sequential_cube(retail_relation, Sum())
        assert cube.value(0b001, ("laptop",)) == 2000 + 1500 + 900

    def test_number_of_cuboids(self, retail_relation):
        cube = sequential_cube(retail_relation)
        masks = {mask for mask, _ in cube.groups_per_cuboid().items()}
        assert len(masks) == 8

    def test_mask_restriction(self, retail_relation):
        cube = sequential_cube(retail_relation, masks=[0, 0b111])
        counts = cube.groups_per_cuboid()
        assert counts[0] == 1
        assert counts[0b001] == 0

    def test_cuboid_group_count_matches_distinct_projections(
        self, retail_relation
    ):
        cube = sequential_cube(retail_relation)
        for mask in (0b001, 0b010, 0b111):
            distinct = set(
                retail_relation.project_group(row, mask)
                for row in retail_relation
            )
            assert len(cube.cuboid(mask)) == len(distinct)

    def test_empty_relation(self):
        rel = Relation(Schema(["a"], "m"), [])
        cube = sequential_cube(rel)
        assert cube.num_groups == 0


class TestBUC:
    def test_matches_oracle(self, retail_relation):
        assert buc_cube(retail_relation) == sequential_cube(retail_relation)

    def test_matches_oracle_with_sum(self, retail_relation):
        assert buc_cube(retail_relation, Sum()) == sequential_cube(
            retail_relation, Sum()
        )

    def test_iceberg_prunes_small_groups(self, retail_relation):
        iceberg = buc_cube(retail_relation, min_support=2)
        full = sequential_cube(retail_relation)
        for (mask, values), _count in iceberg.items():
            assert full.value(mask, values) >= 0
        # Every kept group has at least 2 contributing rows.
        counts = sequential_cube(retail_relation)
        for (mask, values), _agg in iceberg.items():
            assert counts.value(mask, values) >= 2

    def test_iceberg_keeps_all_qualifying(self, retail_relation):
        iceberg = buc_cube(retail_relation, min_support=3)
        oracle = sequential_cube(retail_relation)
        expected = {
            key for key, count in oracle.items() if count >= 3
        }
        assert set(key for key, _ in iceberg.items()) == expected

    def test_invalid_min_support(self, retail_relation):
        with pytest.raises(ValueError):
            buc_cube(retail_relation, min_support=0)

    def test_mask_restriction(self, retail_relation):
        cube = buc_cube(retail_relation, masks=[0b011])
        assert set(mask for (mask, _v), _ in cube.items()) == {0b011}

    def test_iceberg_groups_helper(self, retail_relation):
        heavy = iceberg_groups(retail_relation.rows, 3, min_support=3)
        assert heavy[(0, ())] == 10
        assert (0b001, ("laptop",)) in heavy
        assert all(count >= 3 for count in heavy.values())

    def test_unorderable_dimension_values(self):
        # Mixed-type dimension values must not break partitioning.
        rel = Relation(
            Schema(["a"], "m"), [(1, 1), ("x", 1), (2, 1)], validate=False
        )
        assert buc_cube(rel) == sequential_cube(rel)


ALL_AGGREGATES = [Count(), Sum(), Min(), Max(), Average()]


class TestCrossCheck:
    @pytest.mark.parametrize("fn", ALL_AGGREGATES, ids=lambda f: f.name)
    def test_three_implementations_agree(self, fn):
        rel = make_random_relation(300, num_dimensions=3, seed=5)
        oracle = sequential_cube(rel, fn)
        assert buc_cube(rel, fn) == oracle

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2),
                st.sampled_from("xy"),
                st.integers(1, 9),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_relations(self, rows):
        rel = Relation(Schema(["a", "b", "c"], "m"), rows, validate=False)
        oracle = sequential_cube(rel)
        assert buc_cube(rel) == oracle
