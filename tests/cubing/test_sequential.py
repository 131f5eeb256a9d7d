"""Sequential algorithms: oracle semantics, BUC, cross-checks.

BUC against the oracle on every input of the differential harness is
its ``buc`` engine; ``TestCrossCheck`` names those cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Count, Sum
from repro.core import build_exact_sketch
from repro.cubing import buc_cube, sequential_cube
from repro.relation import Relation, Schema
from repro.relation.lattice import project

from ..conftest import iceberg_cube
from ..test_differential import Case, check_case


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
                project(row, mask, 3)
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
        # The iceberg oracle keeps groups of two or more rows, values intact.
        iceberg = iceberg_cube(retail_relation, Sum(), 2)
        full = sequential_cube(retail_relation, Sum())
        counts = sequential_cube(retail_relation)
        for (mask, values), total in iceberg.items():
            assert total == full.value(mask, values)
            assert counts.value(mask, values) >= 2

    def test_iceberg_keeps_all_qualifying(self, retail_relation):
        iceberg = iceberg_cube(retail_relation, Count(), 3)
        oracle = sequential_cube(retail_relation)
        expected = {
            key for key, count in oracle.items() if count >= 3
        }
        assert set(key for key, _ in iceberg.items()) == expected

    def test_invalid_min_support(self, retail_relation):
        # BUC computes the full cube only.
        with pytest.raises(TypeError):
            buc_cube(retail_relation, min_support=2)
        with pytest.raises(TypeError):
            buc_cube(retail_relation, masks=[0b011])

    def test_iceberg_groups_helper(self, retail_relation):
        # The sketch's skew table at m = 2: the groups of three or more rows.
        sketch = build_exact_sketch(retail_relation, 2, 2)
        assert sketch.cuboids[0].skewed == {(): 10}
        assert sketch.cuboids[0b001].skewed == {
            ("laptop",): 3, ("keyboard",): 3,
        }
        assert all(count >= 3 for _, _, count in sketch.skewed_groups())

    def test_unorderable_dimension_values(self):
        # Mixed-type dimension values must not break partitioning.
        rel = Relation(
            Schema(["a"], "m"), [(1, 1), ("x", 1), (2, 1)], validate=False
        )
        assert buc_cube(rel) == sequential_cube(rel)


class TestCrossCheck:
    @pytest.mark.parametrize("fn", ["count", "sum", "min", "max", "avg"])
    def test_three_implementations_agree(self, fn):
        for input_name in ("heavy", "wikipedia"):
            check_case(Case(input_name, fn, "buc"))

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
