"""Serialized-size estimation."""

from collections import Counter, namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import estimate_bytes, pair_bytes, relation_bytes
from repro.mapreduce.sizes import Block, column_bytes


class TestScalars:
    def test_int(self):
        assert estimate_bytes(42) == 8

    def test_float(self):
        assert estimate_bytes(2.5) == 8

    def test_none(self):
        assert estimate_bytes(None) == 1

    def test_bool(self):
        assert estimate_bytes(True) == 1

    def test_string_length_prefixed(self):
        assert estimate_bytes("abc") == 4 + 3
        assert estimate_bytes("") == 4

    def test_bytes(self):
        assert estimate_bytes(b"xy") == 6


class TestContainers:
    def test_flat_tuple(self):
        assert estimate_bytes(("laptop", 2012)) == 4 + (4 + 6) + 8

    def test_empty_tuple(self):
        assert estimate_bytes(()) == 4

    def test_list_same_as_tuple(self):
        assert estimate_bytes([1, 2]) == estimate_bytes((1, 2))

    def test_nested_tuple(self):
        inner = estimate_bytes((1, 2))
        assert estimate_bytes(((1, 2), 3)) == 4 + inner + 8

    def test_counter(self):
        counter = Counter({"a": 3, "bb": 1})
        assert estimate_bytes(counter) == 4 + (5 + 8) + (6 + 8)

    def test_dict(self):
        assert estimate_bytes({1: 2}) == 4 + 8 + 8

    def test_set(self):
        assert estimate_bytes(frozenset([1, 2])) == 4 + 16

    def test_size_monotone_in_content(self):
        assert estimate_bytes((1, 2, 3)) > estimate_bytes((1, 2))


class TestHelpers:
    def test_pair_bytes(self):
        assert pair_bytes(1, 2) == 16

    def test_relation_bytes(self):
        count, total = relation_bytes([(1, 2), (3, 4)])
        assert count == 2
        assert total == 2 * (4 + 16)

    def test_fallback_uses_repr(self):
        class Odd:
            def __repr__(self):
                return "odd"

        assert estimate_bytes(Odd()) == 4 + 3


Point = namedtuple("Point", "x y")

SCALARS = st.one_of(
    st.integers(-3, 3), st.just(1 << 70), st.floats(allow_nan=False),
    st.booleans(), st.none(), st.text(max_size=5), st.binary(max_size=3),
)
#: Group-like and aggregate-like values: tuples (``top_k`` is a tuple of
#: pairs), a tuple subclass, and the containers holistic states use.
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.tuples(inner, inner).map(lambda pair: Point(*pair)),
        st.frozensets(st.integers(0, 3), max_size=3),
    ),
    max_leaves=8,
)
#: Columns as reducers build them: one family throughout, or a mix.
COLUMNS = st.one_of(
    st.lists(st.integers()), st.lists(st.floats(allow_nan=False)),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False))),
    st.lists(st.text(max_size=6)), st.lists(st.booleans()),
    st.lists(st.sampled_from([1, True, 1.0, 0, False, None])),
    st.lists(st.lists(st.text(max_size=3), max_size=3).map(tuple)),
    st.lists(st.tuples(st.text(max_size=3), st.integers())),
    st.lists(VALUES),
)


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(column=COLUMNS)
    def test_column_bytes_is_the_sum_of_its_items(self, column):
        want = sum(map(estimate_bytes, column))
        assert column_bytes(column) == want
        assert column_bytes(tuple(column)) == want

    def test_lookalikes_are_sized_by_type_not_by_equality(self):
        assert column_bytes([1, 1.0]) == 16
        assert column_bytes([1, True]) == 8 + 1
        assert column_bytes([(1,), (True,), (None,)]) == 12 + 5 + 5

    @settings(max_examples=60, deadline=None)
    @given(
        mask=st.one_of(st.integers(0, 255), st.none(), st.text(max_size=3)),
        pairs=st.lists(st.tuples(VALUES, VALUES), max_size=12),
    )
    def test_a_block_costs_what_its_pairs_cost(self, mask, pairs):
        block = Block(mask, [g for g, _ in pairs], [v for _, v in pairs])
        expanded = list(block.pairs())
        assert expanded == [((mask, g), v) for g, v in pairs]
        assert block.bytes() == sum(pair_bytes(*pair) for pair in expanded)
