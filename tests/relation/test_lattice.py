"""Cube/tuple lattice algebra (paper Section 2.2)."""

from bisect import bisect_left
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relation import Schema, lattice
from repro.relation.lattice import (
    all_cuboids,
    bfs_order,
    bisect_ordered,
    cube_lattice_edges,
    descendants,
    format_cuboid,
    format_group,
    full_mask,
    group_sort_key,
    mask_dimensions,
    mask_size,
    ordered,
    project,
    projector,
    sort_token,
    strict_supersets,
    tuple_lattice,
)


class TestMaskBasics:
    def test_full_mask(self):
        assert full_mask(3) == 0b111
        assert full_mask(1) == 0b1

    def test_mask_size(self):
        assert mask_size(0) == 0
        assert mask_size(0b101) == 2
        assert mask_size(0b1111) == 4

    def test_mask_dimensions(self):
        assert mask_dimensions(0b101, 3) == (0, 2)
        assert mask_dimensions(0, 3) == ()

    def test_all_cuboids_count(self):
        assert len(all_cuboids(4)) == 16
        assert len(all_cuboids(1)) == 2


class TestBFSOrder:
    def test_starts_at_apex_ends_at_full(self):
        order = bfs_order(3)
        assert order[0] == 0
        assert order[-1] == 0b111

    def test_level_by_level(self):
        order = bfs_order(4)
        levels = [mask_size(m) for m in order]
        assert levels == sorted(levels)

    def test_is_a_permutation_of_all_cuboids(self):
        assert sorted(bfs_order(3)) == list(all_cuboids(3))

    def test_deterministic_tie_break(self):
        # Within a level, masks ascend: level 1 of d=3 is 0b001,0b010,0b100.
        assert bfs_order(3)[1:4] == (0b001, 0b010, 0b100)


class TestAncestorsDescendants:
    def test_descendants_drop_one_attribute(self):
        assert sorted(descendants(0b101, 3)) == [0b001, 0b100]

    def test_apex_has_no_descendants(self):
        assert list(descendants(0, 3)) == []

    def test_strict_supersets(self):
        supersets = strict_supersets(0b001, 3)
        assert set(supersets) == {0b011, 0b101, 0b111}

    def test_strict_supersets_of_full_mask_empty(self):
        assert strict_supersets(0b111, 3) == ()

    def test_subsets_and_supersets_partition_comparables(self):
        d = 3
        mask = 0b010
        subs = {m for m in all_cuboids(d) if m != mask and m & mask == m}
        sups = set(strict_supersets(mask, d))
        assert subs.isdisjoint(sups)
        assert mask not in subs and mask not in sups


class TestProjection:
    def test_project_full(self):
        row = ("laptop", "Rome", 2012, 2000)
        assert project(row, 0b111, 3) == ("laptop", "Rome", 2012)

    def test_project_partial(self):
        row = ("laptop", "Rome", 2012, 2000)
        assert project(row, 0b101, 3) == ("laptop", 2012)

    def test_project_apex(self):
        assert project(("a", "b", 1), 0, 2) == ()

    def test_projector_matches_project(self):
        row = (1, 2, 3, 4, 99)
        for mask in all_cuboids(4):
            assert projector(mask, 4)(row) == project(row, mask, 4)

    def test_projector_single_dim_returns_tuple(self):
        assert projector(0b010, 3)((7, 8, 9, 0)) == (8,)

    def test_measure_never_projected(self):
        row = ("x", "y", 123)
        assert 123 not in project(row, 0b11, 2)


class TestTupleLattice:
    def test_node_count(self):
        nodes = tuple_lattice(("laptop", "Rome", 2012, 2000), 3)
        assert len(nodes) == 8

    def test_nodes_in_bfs_order(self):
        nodes = tuple_lattice((1, 2, 3, 0), 3)
        masks = [mask for mask, _values in nodes]
        assert masks == list(bfs_order(3))

    def test_node_values_are_projections(self):
        row = ("laptop", "Rome", 2012, 2000)
        for mask, values in tuple_lattice(row, 3):
            assert values == project(row, mask, 3)


class TestFormatting:
    def test_format_group_paper_example(self):
        schema = Schema(["name", "city", "year"], "sales")
        assert (
            format_group(0b101, ("laptop", 2012), schema)
            == "(laptop, *, 2012)"
        )

    def test_format_group_apex(self):
        schema = Schema(["a", "b"], "m")
        assert format_group(0, (), schema) == "(*, *)"

    def test_format_cuboid(self):
        schema = Schema(["name", "city", "year"], "sales")
        assert format_cuboid(0b101, schema) == "(name, *, year)"
        assert format_cuboid(0, schema) == "(*, *, *)"


class TestCubeLatticeEdges:
    def test_edge_count(self):
        # Each mask of size s has s descendants: sum(s * C(d, s)) = d * 2^(d-1).
        d = 4
        assert len(cube_lattice_edges(d)) == d * 2 ** (d - 1)

    def test_edges_drop_exactly_one_bit(self):
        for parent, child in cube_lattice_edges(3):
            assert mask_size(parent) == mask_size(child) + 1
            assert parent & child == child


class TestGroupSortKey:
    def test_orders_by_level_first(self):
        assert group_sort_key(0, ()) < group_sort_key(0b1, (5,))

    def test_orders_within_cuboid_by_values(self):
        assert group_sort_key(0b1, (1,)) < group_sort_key(0b1, (2,))


NUMBERS = st.booleans() | st.integers() | st.floats()
SCALARS = st.none() | NUMBERS | st.text(max_size=3) | st.binary(max_size=3)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
#: Lists ``<`` can often sort (one family each) and lists it rarely can.
VALUE_LISTS = st.one_of(
    *(
        st.lists(family, max_size=8)
        for family in (
            st.none(),
            NUMBERS,
            st.text(max_size=3),
            st.binary(max_size=3),
            st.tuples(NUMBERS, st.text(max_size=2) | st.none()),
            VALUES,
        )
    )
)


class TestOrdered:
    """The one total order over dimension values: ``<`` where it
    compares, else :func:`sort_token`, the same in every process (a repr
    embedding an object's address would not be)."""

    def test_numbers_sort_numerically_not_lexically(self):
        assert ordered({10: 0, 2: 0, -3: 0}) == [-3, 2, 10]

    def test_mixed_types_sort_deterministically(self):
        keys = ["b", 2, None, (1, "x"), "a", 1.5, (1, "w"), b"raw"]
        once = ordered(dict.fromkeys(keys, 0))
        again = ordered(dict.fromkeys(reversed(keys), 0))
        assert once == again
        # Bands: None < numbers < str < bytes < tuple.
        assert once[0] is None
        assert once[1:3] == [1.5, 2]
        assert once[3:5] == ["a", "b"]
        assert once[5] == b"raw"
        assert once[6:] == [(1, "w"), (1, "x")]

    def test_tuples_compare_recursively(self):
        keys = [(1, None), (1, 0), (1, "a"), (0, "z")]
        assert ordered(dict.fromkeys(keys, 0)) == [
            (0, "z"), (1, None), (1, 0), (1, "a"),
        ]

    def test_comparable_keys_keep_native_order(self):
        assert ordered({"c": 0, "a": 0, "b": 0}) == ["a", "b", "c"]

    def test_key_orders_by_the_token_of_the_key(self):
        rows = [("b", 1), (None, 2), ("a", 3)]
        assert ordered(rows, key=itemgetter(0)) == [
            (None, 2), ("a", 3), ("b", 1),
        ]

    def test_bisect_routes_none_next_to_strings(self):
        elements = [(None,), ("b",)]
        assert [
            bisect_ordered(elements, group)
            for group in [(None,), ("a",), ("b",), ("c",)]
        ] == [0, 1, 1, 2]

    @settings(deadline=None)
    @given(VALUE_LISTS)
    def test_a_plain_sort_that_succeeds_is_the_token_order(self, values):
        try:
            plain = sorted(values)
        except TypeError:
            return
        # By identity: look-alikes (1, 1.0, True) compare equal.
        by_token = sorted(values, key=sort_token)
        assert list(map(id, plain)) == list(map(id, by_token))
        assert list(map(id, ordered(values))) == list(map(id, by_token))

    @settings(deadline=None)
    @given(VALUE_LISTS, VALUES)
    def test_bisect_ordered_is_bisect_over_the_tokens(self, values, value):
        elements = sorted(values, key=sort_token)
        tokens = list(map(sort_token, elements))
        assert bisect_ordered(elements, value) == bisect_left(
            tokens, sort_token(value)
        )
