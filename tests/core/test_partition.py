"""Range partitioning (Definition 4.1 / Proposition 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_exact_sketch,
    find_partition,
    partition_elements_from_sorted,
    partition_loads,
)
from repro.relation.lattice import project

from ..conftest import make_random_relation


def cuboid_elements(relation, mask, k):
    """The partition elements the (exact) sketch records for ``mask``."""
    sketch = build_exact_sketch(relation, k, len(relation))
    return sketch.cuboids[mask].partition_elements


class TestPartitionElements:
    def test_definition_positions(self):
        groups = [(i,) for i in range(12)]
        elements = partition_elements_from_sorted(groups, 4)
        # positions i*n/k for i = 1..k-1: 3, 6, 9
        assert elements == [(3,), (6,), (9,)]

    def test_single_partition_no_elements(self):
        assert partition_elements_from_sorted([(1,)], 1) == []

    def test_empty_input(self):
        assert partition_elements_from_sorted([], 5) == []

    def test_count_is_k_minus_one(self):
        groups = [(i,) for i in range(100)]
        assert len(partition_elements_from_sorted(groups, 7)) == 6

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            partition_elements_from_sorted([], 0)

    def test_elements_are_sorted(self):
        groups = sorted((i % 10,) for i in range(50))
        elements = partition_elements_from_sorted(groups, 5)
        assert elements == sorted(elements)

    def test_for_cuboid_sorts_projections(self):
        rel = make_random_relation(60, num_dimensions=2, seed=1)
        elements = cuboid_elements(rel, 0b01, 4)
        assert elements == sorted(elements)
        assert all(len(e) == 1 for e in elements)


class TestFindPartition:
    def test_boundaries_inclusive_left(self):
        elements = [("b",), ("d",)]
        assert find_partition(elements, ("a",)) == 0
        assert find_partition(elements, ("b",)) == 0  # equal -> lower
        assert find_partition(elements, ("c",)) == 1
        assert find_partition(elements, ("d",)) == 1
        assert find_partition(elements, ("e",)) == 2

    def test_no_elements_single_partition(self):
        assert find_partition([], ("anything",)) == 0

    @given(
        values=st.lists(st.integers(0, 100), min_size=1, max_size=200),
        k=st.integers(2, 10),
    )
    @settings(max_examples=50)
    def test_partition_index_in_range(self, values, k):
        groups = sorted((v,) for v in values)
        elements = partition_elements_from_sorted(groups, k)
        for group in groups:
            assert 0 <= find_partition(elements, group) < k


class TestProposition42:
    def test_group_never_split(self):
        """Prop 4.2(1): equal groups land in the same partition (trivially,
        since routing is a pure function of the group value)."""
        rel = make_random_relation(200, num_dimensions=2, cardinality=4, seed=2)
        mask = 0b01
        elements = cuboid_elements(rel, mask, 5)
        routes = {}
        for row in rel:
            group = project(row, mask, 2)
            route = find_partition(elements, group)
            assert routes.setdefault(group, route) == route

    def test_partitions_balanced_without_skew(self):
        """Prop 4.2(2): with no skewed groups, partitions are O(m)."""
        rel = make_random_relation(
            1000, num_dimensions=2, cardinality=1000, seed=3
        )
        k = 5
        m = len(rel) // k
        mask = 0b11
        elements = cuboid_elements(rel, mask, k)
        sizes = partition_loads(rel.rows, mask, 2, elements, k)
        assert sum(sizes) == len(rel)
        # Exact elements from the full sort: each partition within ~2m.
        assert max(sizes) <= 2 * m

    def test_partition_sizes_accounts_every_row(self):
        rel = make_random_relation(137, num_dimensions=3, seed=4)
        k = 4
        elements = cuboid_elements(rel, 0b101, k)
        sizes = partition_loads(rel.rows, 0b101, 3, elements, k)
        assert sum(sizes) == 137
        assert len(sizes) == k
