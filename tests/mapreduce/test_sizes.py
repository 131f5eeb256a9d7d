"""Serialized-size estimation."""

from collections import Counter, namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import estimate_bytes, pair_bytes, relation_bytes
from repro.mapreduce.sizes import Block, blocks_bytes, column_bytes


class TestScalars:
    def test_int(self):
        assert estimate_bytes(42) == 8

    def test_float(self):
        assert estimate_bytes(2.5) == 8

    def test_none(self):
        assert estimate_bytes(None) == 1

    def test_bool(self):
        """A bool is sized as the number it equals."""
        assert estimate_bytes(True) == estimate_bytes(1) == 8
        assert estimate_bytes(False) == 8

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

    def test_an_object_that_sizes_itself_is_charged_its_size(self):
        class Sized:
            def serialized_bytes(self):
                return 16340

        assert estimate_bytes(Sized()) == 16340
        assert pair_bytes(0, Sized()) == 8 + 16340


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
#: The scalar kinds a column is sized by counting, in any mix.
COUNTED = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=6),
    st.booleans(), st.none(),
)
#: A typed relation's dimension value: int, str, None, bool or a tuple.
DIMENSION = st.one_of(
    st.integers(-3, 3), st.text(max_size=3), st.none(), st.booleans(),
    st.tuples(st.integers(0, 2), st.text(max_size=2)),
)
#: Columns as reducers build them: one family throughout, or a mix.
COLUMNS = st.one_of(
    st.lists(st.integers()), st.lists(st.floats(allow_nan=False)),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False))),
    st.lists(st.text(max_size=6)), st.lists(st.booleans()),
    st.lists(st.sampled_from([1, True, 1.0, 0, False, None])),
    st.lists(st.lists(st.text(max_size=3), max_size=3).map(tuple)),
    st.lists(st.tuples(st.text(max_size=3), st.integers())),
    st.lists(COUNTED),
    st.lists(st.one_of(COUNTED, st.lists(DIMENSION, max_size=3).map(tuple))),
    st.lists(st.one_of(COUNTED, st.binary(max_size=2), VALUES)),
    st.lists(VALUES),
)


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(column=COLUMNS)
    def test_column_bytes_is_the_sum_of_its_items(self, column):
        want = sum(map(estimate_bytes, column))
        assert column_bytes(column) == want
        assert column_bytes(tuple(column)) == want

    def test_lookalikes_are_sized_alike(self):
        """Equal values cost alike, so sizing a run's key once, as any
        of its look-alikes, charges what each pair's own key would."""
        assert column_bytes([1, 1.0]) == column_bytes([1, True]) == 16
        assert column_bytes([(1,), (True,), (1.0,), (None,)]) == 3 * 12 + 5
        for lookalikes in ((1, True, 1.0), (0, False, 0.0, -0.0)):
            assert len({estimate_bytes((x, "k")) for x in lookalikes}) == 1

    def test_a_mixed_column_is_counted_by_kind(self):
        column = [1, "ab", None, True, 2.5, "", ("x", 1), Point(1, 2), b"z"]
        assert column_bytes(column) == 8 + 6 + 1 + 8 + 8 + 4 + 17 + 20 + 5

    @settings(max_examples=60, deadline=None)
    @given(
        mask=st.one_of(st.integers(0, 255), st.none(), st.text(max_size=3)),
        pairs=st.lists(st.tuples(VALUES, VALUES), max_size=12),
    )
    def test_a_block_costs_what_its_pairs_cost(self, mask, pairs):
        block = Block(mask, [g for g, _ in pairs], [v for _, v in pairs])
        expanded = list(block.pairs())
        assert expanded == [((mask, g), v) for g, v in pairs]
        assert blocks_bytes([block]) == sum(
            pair_bytes(*pair) for pair in expanded
        )


def _block(mask, width, groups):
    """A cuboid's block: ``width``-wide groups of typed dimension values."""
    return Block(mask, [g[:width] for g, _ in groups], [v for _, v in groups])


#: A reduce task's blocks: cuboids of different arities (0 to 4
#: dimensions), some empty, values of the aggregates' kinds.
BLOCKS = st.lists(
    st.builds(
        _block,
        st.integers(0, 31),
        st.integers(0, 4),
        st.lists(
            st.tuples(
                st.lists(DIMENSION, min_size=4, max_size=4).map(tuple),
                st.one_of(COUNTED, VALUES),
            ),
            max_size=6,
        ),
    ),
    max_size=6,
)


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(blocks=BLOCKS)
    def test_blocks_cost_what_their_pairs_cost(self, blocks):
        want = sum(
            pair_bytes(*pair) for block in blocks for pair in block.pairs()
        )
        assert blocks_bytes(blocks) == want
        assert blocks_bytes(blocks) == sum(blocks_bytes([b]) for b in blocks)

    def test_no_blocks_and_empty_blocks_cost_nothing(self):
        assert blocks_bytes([]) == 0
        assert blocks_bytes([Block(3, [], []), Block(0, [], [])]) == 0

    def test_arities_and_kinds_mixed_across_blocks(self):
        # Every pair: a 4-byte key frame and an 8-byte int mask, then the
        # group (4-byte frame + items) and the value.
        blocks = [
            Block(0, [()], [7]),  # 12 + 4 + 8
            Block(0b01, [(None,), (True,)], [1, 2.5]),  # 2 * (12 + 8) + 5 + 12
            Block(
                0b11,
                [("ab", 1), ((1, "x"), None)],
                [(3,), "v"],
            ),  # (12 + 18 + 12) + (12 + (4 + 17 + 1) + 5)
        ]
        assert blocks_bytes(blocks) == 24 + 57 + 42 + 39
