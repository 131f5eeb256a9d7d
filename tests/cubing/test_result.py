"""CubeResult container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.cubing import CubeResult, sequential_cube
from repro.datagen import gen_binomial
from repro.relation import Relation, Schema, all_cuboids, mask_size
from repro.serving import CubeStore


@pytest.fixture
def schema():
    return Schema(["a", "b"], "m")


class TestAddAndAccess:
    def test_add_and_value(self, schema):
        cube = CubeResult(schema)
        cube.add(0b01, ("x",), 5)
        assert cube.value(0b01, ("x",)) == 5

    def test_duplicate_same_value_ok(self, schema):
        cube = CubeResult(schema)
        cube.add(0, (), 1)
        cube.add(0, (), 1)
        assert len(cube) == 1

    def test_conflicting_value_raises(self, schema):
        cube = CubeResult(schema)
        cube.add(0, (), 1)
        with pytest.raises(ValueError, match="conflicting"):
            cube.add(0, (), 2)

    def test_get_with_default(self, schema):
        cube = CubeResult(schema)
        assert cube.get(0, (), "missing") == "missing"

    def test_contains(self, schema):
        cube = CubeResult(schema)
        cube.add(0b10, ("y",), 3)
        assert (0b10, ("y",)) in cube
        assert (0b01, ("y",)) not in cube


class TestAddBlock:
    GROUPS = [("x",), ("y",), ("z",)]

    def test_block_lands_in_its_cuboid(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])
        assert cube.cuboid(0b01) == {("x",): 1, ("y",): 2, ("z",): 3}
        assert cube.num_groups == len(cube) == 3
        assert list(cube.items()) == [
            ((0b01, ("x",)), 1), ((0b01, ("y",)), 2), ((0b01, ("z",)), 3)
        ]

    def test_equal_reinsert_is_a_noop(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])
        before = list(cube.items())
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])
        cube.add_block(0b01, [("y",)], [2.0])  # equal, first value wins
        assert list(cube.items()) == before
        assert type(cube.value(0b01, ("y",))) is int

    def test_conflicting_reinsert_names_the_group(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])
        with pytest.raises(ValueError, match=r"c-group \(1, \('y',\)\): 2 vs 9"):
            cube.add_block(0b01, [("w",), ("y",)], [0, 9])

    def test_into_a_non_empty_cuboid_validates_per_group(self, schema):
        cube = CubeResult(schema)
        cube.add(0b01, ("y",), 2)
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])  # overlaps, agrees
        assert cube.cuboid(0b01) == {("y",): 2, ("x",): 1, ("z",): 3}
        cube.add_block(0b01, [("u",), ("v",)], [7, 8])  # disjoint: bulk
        assert cube.num_groups == 5
        with pytest.raises(ValueError, match="conflicting"):
            cube.add_block(0b01, [("t",), ("x",)], [0, -1])

    def test_group_repeated_inside_a_block(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b10, [("p",), ("q",), ("p",)], [1, 2, 1])
        assert cube.cuboid(0b10) == {("p",): 1, ("q",): 2}
        other = CubeResult(schema)
        other.add(0b10, ("o",), 0)
        with pytest.raises(ValueError, match=r"\('p',\)\): 1 vs 5"):
            other.add_block(0b10, [("p",), ("q",), ("p",)], [1, 2, 5])
        assert other.value(0b10, ("o",)) == 0  # what was there stays

    def test_value_names_the_whole_group_when_absent(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b01, self.GROUPS, [1, 2, 3])
        for key in [(0b01, ("w",)), (0b10, ("x",))]:
            with pytest.raises(KeyError) as caught:
                cube.value(*key)
            assert caught.value.args == (key,)
            assert key not in cube and cube.get(*key) is None

    def test_add_pairs_is_add_pair_by_pair(self, schema):
        cube = CubeResult(schema, {(0, ()): 4})
        cube.add_pairs([((0b01, ("x",)), 1), ((0, ()), 4)])
        assert cube == CubeResult(schema, {(0, ()): 4, (0b01, ("x",)): 1})
        with pytest.raises(ValueError, match="conflicting"):
            cube.add_pairs([((0b01, ("x",)), 2)])


def dict_cuboids(cube):
    """The masks a cube holds as ``{values: value}`` dicts."""
    return [mask for mask, held in cube._cuboids.items() if type(held) is dict]


class TestColumnarCuboids:
    """A block added to an empty cuboid is kept as its two lists; a
    cuboid's dict is built on the first read that needs it."""

    def test_block_lists_are_kept_as_they_are(self, schema):
        cube = CubeResult(schema)
        groups, values = [("x",), ("y",)], [1, 2]
        cube.add_block(0b01, groups, values)
        assert cube.columns(0b01)[0] is groups
        assert cube.columns(0b01)[1] is values
        assert dict_cuboids(cube) == []
        assert cube.num_groups == 2 and cube.groups_per_cuboid()[0b01] == 2
        assert list(cube.items()) == [((0b01, ("x",)), 1), ((0b01, ("y",)), 2)]

    def test_a_read_converts_only_its_cuboid(self, schema):
        cube = CubeResult(schema)
        cube.add_block(0b01, [("x",)], [1])
        cube.add_block(0b10, [("y",)], [2])
        assert cube.value(0b10, ("y",)) == 2
        assert dict_cuboids(cube) == [0b10]
        assert cube.columns(0b10) == ([("y",)], [2])

    def test_an_add_converts_first(self, schema):
        cube = CubeResult(schema)
        groups = [("x",)]
        cube.add_block(0b01, groups, [1])
        cube.add(0b01, ("y",), 2)
        assert cube.cuboid(0b01) == {("x",): 1, ("y",): 2}
        assert groups == [("x",)]  # the block's own list is untouched

    def test_sp_cube_builds_no_dict_to_compute_and_store(
        self, monkeypatch, tmp_path
    ):
        relation = gen_binomial(300, 0.4, seed=5)

        def refuse(self, mask):
            raise AssertionError(f"cuboid {mask} built as a dict")

        with monkeypatch.context() as patched:
            patched.setattr(CubeResult, "cuboid", refuse)
            patched.setattr(CubeResult, "_dict", refuse)
            cube = SPCube(paper_cluster(300, num_machines=4)).compute(
                relation
            ).cube
            CubeStore.write(cube, str(tmp_path / "c.store"))
        assert dict_cuboids(cube) == []
        some = next(mask for mask in cube._cuboids if cube.columns(mask)[0])
        cube.cuboid(some)
        assert dict_cuboids(cube) == [some]
        assert cube == sequential_cube(relation)


def scan_rows_matching(cube, mask, fixed):
    """The selection as a per-group generator over the cuboid's dict:
    the brute-force oracle of :meth:`CubeResult.rows_matching`."""
    return [
        item
        for item in cube.cuboid(mask).items()
        if all(item[0][at] == value for at, value in fixed)
    ]


#: Per dimension: plain ints, look-alikes that are ``==`` (``-0.0``
#: included), and ``None`` among mixed str/int/tuple/float values.
VALUE_FAMILIES = [
    st.integers(0, 3),
    st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, 2]),
    st.sampled_from([None, "a", "1", 1, (1,), 2.5]),
]
ABSENT = "~absent~"


@st.composite
def selections(draw):
    """``(cube, mask, fixed)``: a relation's cube, one of its cuboids and
    0..|mask| fixed positions, each fixed to a present value of that
    position, a look-alike of one, or a value no group holds."""
    d = draw(st.integers(1, 4))
    families = [draw(st.sampled_from(VALUE_FAMILIES)) for _ in range(d)]
    rows = draw(st.lists(st.tuples(*families, st.just(1)), max_size=12))
    schema = Schema([f"d{i}" for i in range(d)], "m")
    cube = sequential_cube(Relation(schema, rows))
    mask = draw(st.sampled_from(all_cuboids(d)))
    groups = list(cube.cuboid(mask))
    positions = draw(
        st.lists(st.integers(0, max(0, mask_size(mask) - 1)), unique=True)
        if mask
        else st.just([])
    )
    others = [0, 0.0, -0.0, False, 1, 1.0, True, None, "1", ABSENT]
    fixed = [
        (at, draw(st.sampled_from([g[at] for g in groups] + others)))
        for at in positions
    ]
    return cube, mask, fixed


def block_held(cube):
    """A copy of ``cube`` holding every cuboid as block lists."""
    copy = CubeResult(cube.schema)
    for mask in all_cuboids(cube.schema.num_dimensions):
        copy.add_block(mask, *cube.columns(mask))
    return copy


class TestRowsMatching:
    """The column filter against the per-group scan it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(selections())
    def test_equals_the_scan_in_order_and_by_repr(self, selection):
        cube, mask, fixed = selection
        expected = repr(scan_rows_matching(cube, mask, fixed))
        assert repr(cube.rows_matching(mask, fixed)) == expected
        blocks = block_held(cube)
        assert repr(blocks.rows_matching(mask, iter(fixed))) == expected
        assert dict_cuboids(blocks) == []


class TestViews:
    def test_cuboid_extraction(self, schema):
        cube = CubeResult(schema)
        cube.add(0b01, ("x",), 1)
        cube.add(0b01, ("y",), 2)
        cube.add(0b10, ("z",), 3)
        assert cube.cuboid(0b01) == {("x",): 1, ("y",): 2}

    def test_groups_per_cuboid_counts_all_masks(self, schema):
        cube = CubeResult(schema)
        cube.add(0, (), 9)
        counts = cube.groups_per_cuboid()
        assert counts[0] == 1
        assert counts[0b11] == 0
        assert len(counts) == 4

    def test_to_rows_deterministic_order(self, schema):
        cube = CubeResult(schema)
        cube.add(0b11, ("x", "y"), 1)
        cube.add(0, (), 2)
        cube.add(0b01, ("a",), 3)
        rows = cube.to_rows()
        assert [row[0] for row in rows] == [0, 0b01, 0b11]


class TestComparison:
    def test_equality(self, schema):
        a = CubeResult(schema, {(0, ()): 5})
        b = CubeResult(schema, {(0, ()): 5})
        assert a == b

    def test_inequality(self, schema):
        a = CubeResult(schema, {(0, ()): 5})
        b = CubeResult(schema, {(0, ()): 6})
        assert a != b

    def test_equality_ignores_empty_cuboids(self, schema):
        a = CubeResult(schema, {(0, ()): 5})
        b = CubeResult(schema, {(0, ()): 5})
        b.add_block(0b11, [], [])
        assert a == b and b == a
        assert b.cuboid(0b11) == {} and b.num_groups == 1
        assert "0-level" in repr(b)
        b.add_block(0b11, [("x", "y")], [1])
        assert a != b

    def test_not_comparable_to_dict(self, schema):
        assert CubeResult(schema) != {}

    def test_unhashable(self, schema):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(CubeResult(schema))

    def test_unhashable_the_canonical_way(self, schema):
        # __hash__ = None (not a raising method): dict/set membership
        # fails up front and collections.abc.Hashable agrees.
        from collections.abc import Hashable

        assert CubeResult.__hash__ is None
        assert not isinstance(CubeResult(schema), Hashable)
        with pytest.raises(TypeError, match="unhashable type"):
            {CubeResult(schema): 1}

    def test_diff_reports_all_kinds(self, schema):
        a = CubeResult(schema, {(0, ()): 1, (0b01, ("x",)): 2})
        b = CubeResult(schema, {(0, ()): 9, (0b10, ("y",)): 3})
        problems = "\n".join(a.diff(b))
        assert "mismatch" in problems
        assert "missing in other" in problems
        assert "extra in other" in problems

    def test_diff_respects_limit(self, schema):
        a = CubeResult(schema, {(0b01, (i,)): i for i in range(50)})
        b = CubeResult(schema)
        assert len(a.diff(b, limit=5)) == 5

    def test_repr(self, schema):
        cube = CubeResult(schema, {(0, ()): 1})
        assert "1 groups" in repr(cube)
