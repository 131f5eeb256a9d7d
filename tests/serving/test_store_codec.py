"""The v3 column codec: type-exact round-trips and byte-level fuzzing."""

import copy
import json
import struct
import tempfile
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import get_aggregate
from repro.cubing import CubeResult, sequential_cube
from repro.cubing.result import matching_rows
from repro.relation import Relation, Schema, mask_dimensions, mask_size
from repro.serving import CubeStore, StoreError
from repro.serving import store as store_module
from repro.serving.store import _codes_in_range, _pack, _unpack

SCHEMA = Schema(["a", "b"], "m")
#: The documented column prefix: kind, item size, payload bytes.
COLUMN_PREFIX = struct.Struct("<cBQ")

# Values that are equal (and hash equal) yet must come back as themselves.
LOOKALIKES = st.sampled_from(
    [0, 0.0, -0.0, False, 1, 1.0, True, None, "", "0", (1,), (1.0,), (True,)]
)
TEXTS = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from("\n\t\x00\ud800\udfff\xe9\U0001f600"),
    ),
    max_size=6,
)
SMALL_INTS = st.integers(-200, 200)
WIDE_INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0)
)
SCALARS = st.one_of(
    LOOKALIKES, TEXTS, SMALL_INTS, WIDE_INTS, FLOATS, st.booleans()
)
NESTED = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4
)
#: One family per column, so typed kinds (all-int, all-float, all-str)
#: and the generic kind are each drawn whole, not only in mixtures.
FAMILIES = [SMALL_INTS, WIDE_INTS, FLOATS, TEXTS, LOOKALIKES, NESTED]


@st.composite
def cubes(draw):
    dimension_values = [draw(st.sampled_from(FAMILIES)) for _ in range(2)]
    aggregates = draw(
        st.sampled_from(FAMILIES + [st.lists(SCALARS, max_size=2)])
    )
    groups = {}
    for mask in range(4):
        keys = st.tuples(
            *(dimension_values[dim] for dim in mask_dimensions(mask, 2))
        )
        for values in draw(st.lists(keys, max_size=4)):
            groups[(mask, values)] = draw(aggregates)
    return CubeResult(SCHEMA, groups)


def roundtrip(cube, **write_options):
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "cube.store")
        CubeStore.write(cube, path, **write_options)
        with CubeStore.open(path) as store:
            return store.to_cube()


def assert_exact(back, cube):
    assert back == cube
    # Equality is blind to 1 / 1.0 / True and 0.0 / -0.0; repr is not.
    assert sorted(map(repr, back.items())) == sorted(map(repr, cube.items()))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(cubes())
    def test_generated_cubes_roundtrip_type_exact(self, cube):
        assert_exact(roundtrip(cube), cube)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["dimension", "aggregate", "nested"])
    def test_non_finite_floats_rejected_at_write(self, bad, where, tmp_path):
        groups = {
            "dimension": {(1, (bad,)): 1},
            "aggregate": {(1, ("x",)): bad},
            "nested": {(1, ("x",)): (1, bad)},
        }[where]
        path = tmp_path / "bad.store"
        with pytest.raises(StoreError, match="round-trip"):
            CubeStore.write(CubeResult(SCHEMA, groups), str(path))
        assert list(tmp_path.iterdir()) == []

    def test_lookalike_values_in_different_cuboids_stay_distinct(self):
        # One dimension holds 1, 1.0 and True — in different cuboids, so
        # the cube can tell them apart but a value-keyed dictionary
        # could not.
        cube = CubeResult(
            SCHEMA,
            {
                (1, (1,)): 10,
                (3, (1.0, "x")): 20,
                (3, (True, "y")): 30,
                (2, ("x",)): 0.0,
                (2, ("y",)): -0.0,
            },
        )
        assert_exact(roundtrip(cube), cube)

    @settings(max_examples=60, deadline=None)
    @given(cubes())
    def test_columnar_cube_writes_the_bytes_of_its_dict_form(self, cube):
        # The blocks are SP-Cube's shape; reading every cuboid converts
        # the same cube to dicts, whose write is the reference.
        columnar = CubeResult(SCHEMA)
        for mask in range(4):
            columnar.add_block(mask, *cube.columns(mask))
        with tempfile.TemporaryDirectory() as directory:
            paths = [str(Path(directory) / name) for name in "ab"]
            CubeStore.write(columnar, paths[0], aggregate="count")
            for mask in range(4):
                columnar.cuboid(mask)
            CubeStore.write(columnar, paths[1], aggregate="count")
            assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_columnar_lookalikes_write_the_bytes_of_their_dict_form(self):
        # Look-alikes of one dimension sit in different cuboids.
        columnar = CubeResult(SCHEMA)
        columnar.add_block(1, [(1,), (2,)], [10, 11])
        columnar.add_block(2, [(-0.0,), (5.0,)], [0.0, -0.0])
        columnar.add_block(3, [(True, 0.0), (1.0, 5.0)], [20, 30])
        dicts = CubeResult(SCHEMA, dict(columnar.items()))
        with tempfile.TemporaryDirectory() as directory:
            a, b = Path(directory) / "a", Path(directory) / "b"
            CubeStore.write(columnar, str(a))
            CubeStore.write(dicts, str(b))
            assert a.read_bytes() == b.read_bytes()
            with CubeStore.open(str(a)) as store:
                assert_exact(store.to_cube(), dicts)

    def test_top_k_cube_uses_generic_kind(self, retail_relation):
        cube = sequential_cube(retail_relation, get_aggregate("top_k"))
        assert {type(v) for _, v in cube.items()} == {tuple}
        assert_exact(roundtrip(cube, aggregate="top_k"), cube)

    def test_avg_cube_uses_float_kind(self, retail_relation):
        cube = sequential_cube(retail_relation, get_aggregate("avg"))
        assert {type(v) for _, v in cube.items()} == {float}
        assert_exact(roundtrip(cube, aggregate="avg"), cube)

    def test_unorderable_dimension_values_stored(self):
        # Regression: the v1 writer's global to_rows() sort raised a raw
        # TypeError ('<' between NoneType and int) for this relation.
        relation = Relation(SCHEMA, [(1, "x", 1), (None, "y", 1)])
        cube = sequential_cube(relation)
        assert_exact(roundtrip(cube, aggregate="count"), cube)

    def test_segments_sorted_in_group_order(self, retail_relation, tmp_path):
        # Order-preserving dictionaries: each cuboid's groups come back
        # in ascending <_C order, as the v1 to_rows() sort produced.
        cube = sequential_cube(retail_relation)
        path = str(tmp_path / "cube.store")
        CubeStore.write(cube, path, aggregate="count")
        with CubeStore.open(path) as store:
            for mask in store.masks:
                keys = list(store.cuboid(mask))
                assert keys == sorted(keys)


# -- one column at its width edges --------------------------------------------


#: ``value -> (kind, item size)`` of the column ``[value]``, and of the
#: column ``[-1, value]``, which must be signed.
WIDTH_EDGES = {
    -(2**63) - 1: ((b"g", 0), (b"g", 0)),
    -(2**63): ((b"i", 8), (b"i", 8)),
    -129: ((b"i", 2), (b"i", 2)),
    -128: ((b"i", 1), (b"i", 1)),
    -1: ((b"i", 1), (b"i", 1)),
    0: ((b"u", 1), (b"i", 1)),
    127: ((b"u", 1), (b"i", 1)),
    128: ((b"u", 1), (b"i", 2)),
    255: ((b"u", 1), (b"i", 2)),
    256: ((b"u", 2), (b"i", 2)),
    32767: ((b"u", 2), (b"i", 2)),
    32768: ((b"u", 2), (b"i", 4)),
    65535: ((b"u", 2), (b"i", 4)),
    65536: ((b"u", 4), (b"i", 4)),
    2**31: ((b"u", 4), (b"i", 8)),
    2**32 - 1: ((b"u", 4), (b"i", 8)),
    2**32: ((b"u", 8), (b"i", 8)),
    2**63: ((b"u", 8), (b"g", 0)),
    2**64 - 1: ((b"u", 8), (b"g", 0)),
    2**64: ((b"g", 0), (b"g", 0)),
}
#: Strings ``int()`` reads that are not the canonical numeral of the
#: result, or that ``int()`` refuses: all stay ``s``.
NON_CANONICAL = ["+5", " 5", "5 ", "05", "-0", "1_0", "\u0661\u0662", "", "1" * 5000]


def column_kind(raw):
    """``(kind, item size)`` of the packed column ``raw``."""
    return COLUMN_PREFIX.unpack_from(raw)[:2]


def assert_column_roundtrip(values):
    raw = _pack(values)
    back, end = _unpack(raw, 0, len(values), "test")
    assert end == len(raw)
    assert list(map(type, back)) == list(map(type, values))
    assert list(back) == list(values)
    return raw


@pytest.mark.parametrize("value", sorted(WIDTH_EDGES), ids=str)
def test_int_column_is_exact_at_its_narrowest_width(value):
    alone, signed = WIDTH_EDGES[value]
    assert column_kind(assert_column_roundtrip([value])) == alone
    assert column_kind(assert_column_roundtrip([-1, value])) == signed


@pytest.mark.parametrize("value", sorted(WIDTH_EDGES), ids=str)
def test_numeral_column_holds_its_ints_at_their_width(value):
    raw = assert_column_roundtrip([str(value)])
    if WIDTH_EDGES[value][0] == (b"g", 0):  # past 64 bits: plain text
        assert column_kind(raw) == (b"s", 0)
    else:
        assert column_kind(raw) == (b"n", 0)
        assert column_kind(raw[COLUMN_PREFIX.size:]) == WIDTH_EDGES[value][0]


def test_numeral_column_keeps_its_string_order():
    values = ["10", "2", "-3", "1"]  # sorted as strings, not as ints
    raw = assert_column_roundtrip(values)
    assert column_kind(raw) == (b"n", 0)
    ints, _ = _unpack(raw[COLUMN_PREFIX.size:], 0, 4, "test")
    assert list(ints) == [10, 2, -3, 1]


@pytest.mark.parametrize("text", NON_CANONICAL, ids=lambda text: repr(text)[:10])
def test_non_canonical_numeral_stays_text(text):
    for values in ([text], ["7", text], [text, "7"]):
        assert column_kind(assert_column_roundtrip(values)) == (b"s", 0)


def test_numerals_past_both_64_bit_ranges_stay_text():
    # Each fits one of int64 and uint64, but no one array holds both.
    values = ["-1", str(2**64 - 1)]
    assert column_kind(assert_column_roundtrip(values)) == (b"s", 0)


COLUMN_INTS = st.one_of(
    st.integers(), st.sampled_from(sorted(WIDTH_EDGES)), st.integers(-300, 300)
)
COLUMN_STRS = st.one_of(
    TEXTS, COLUMN_INTS.map(str), st.sampled_from(NON_CANONICAL[:-1])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(COLUMN_INTS), st.lists(COLUMN_STRS)))
def test_pack_unpack_is_type_exact(values):
    assert_column_roundtrip(values)


# -- byte-level fuzz ----------------------------------------------------------


#: Between them the three fuzzed stores hold every column kind: ``s``,
#: ``n`` (over ``u``), ``u``, ``i`` and generic dictionaries, ``u`` code
#: columns, and ``u`` (counts of 128-255, one byte each), ``f`` and
#: generic aggregate columns.
FUZZ_CUBES = {
    "typed": (
        [("x", 1, 5), ("x", 300, 7), ("\xe9\n", 2, 5), ("y", 1, 2)],
        "avg",
    ),
    "generic": (
        [("x", 1, 5), ("x", None, 7), ("\xe9\n", 2, 5), ("y", 300, 1)],
        "top_k",
    ),
    "numeral": (
        [("7", -1, 0)] * 130 + [("12", 300, 0), ("40000", 2, 0)],
        "count",
    ),
}


def split_store(data):
    """``(body, footer dict)`` of a store file's bytes."""
    pointer = data.rstrip(b"\n").rsplit(b"\n", 1)[1]
    offset = int(pointer.split()[1])
    return data[:offset], json.loads(data[offset:].split(b"\n", 1)[0])


def forge(footer, index):
    """A deep copy of ``footer`` and its ``index``-th dictionary/segment
    entry, for the caller to falsify."""
    forged = copy.deepcopy(footer)
    return forged, (forged["dictionaries"] + forged["cuboids"])[index]


def join_store(body, footer):
    """Re-assemble a store with the footer CRC recomputed to match."""
    raw = json.dumps(footer, sort_keys=True).encode() + b"\n"
    return body + raw + b"footer %d %d\n" % (len(body), zlib.crc32(raw))


def read_back(path, data):
    path.write_bytes(data)
    with CubeStore.open(str(path)) as store:
        cube = store.to_cube()
        # Whatever a CRC-clean file decodes to must be a well-formed
        # cube: lattice masks, one value per mask dimension, and the
        # footer's group counts (the reader checks those itself).
        for (mask, values), _ in cube.items():
            assert 0 <= mask < 4 and len(values) == mask_size(mask)
            # ... and selecting in code space agrees with scanning it.
            fixed = [(len(values) - 1, values[-1])] if values else []
            assert store.rows_matching(mask, fixed) == matching_rows(
                cube.cuboid(mask), fixed
            )
        return cube


@pytest.fixture(scope="module", params=sorted(FUZZ_CUBES))
def fuzz_store(request, tmp_path_factory):
    rows, aggregate = FUZZ_CUBES[request.param]
    cube = sequential_cube(Relation(SCHEMA, rows), get_aggregate(aggregate))
    path = tmp_path_factory.mktemp("fuzz") / "cube.store"
    CubeStore.write(cube, str(path), aggregate=aggregate)
    data = path.read_bytes()
    body, footer = split_store(data)
    assert join_store(body, footer) == data
    return cube, path, data


def damaged(data, positions):
    """Copies of ``data`` with one byte flipped, four ways per position."""
    for position in positions:
        for flip in (0x01, 0x10, 0x80, 0xFF):
            mutated = bytearray(data)
            mutated[position] ^= flip
            yield bytes(mutated)


class TestByteFuzz:
    def test_stale_crc_flip_is_error_or_identical(self, fuzz_store):
        # Every byte after the header line is covered by a CRC, so a
        # flipped one is either caught or (the pointer line's trailing
        # newline) harmless — never a different cube, never a raw
        # IndexError / struct.error / UnicodeDecodeError.
        cube, path, data = fuzz_store
        outcomes = set()
        for mutated in damaged(data, range(data.index(b"\n") + 1, len(data))):
            try:
                assert read_back(path, mutated) == cube
                outcomes.add("identical")
            except StoreError as error:
                assert "\n" not in str(error)
                outcomes.add("error")
        assert "error" in outcomes

    def test_truncation_is_error(self, fuzz_store):
        cube, path, data = fuzz_store
        for cut in range(data.index(b"\n") + 1, len(data) - 1):
            with pytest.raises(StoreError):
                read_back(path, data[:cut])

    def test_matching_crc_flip_is_error_or_well_formed(self, fuzz_store):
        # With the CRCs recomputed over the damage the checksums pass,
        # so decoding itself has to hold: a StoreError, or a well-formed
        # cube (read_back asserts the shape) — never another exception.
        cube, path, data = fuzz_store
        body, footer = split_store(data)
        entries = footer["dictionaries"] + footer["cuboids"]
        outcomes = set()
        for index, entry in enumerate(entries):
            start, stop = entry["offset"], entry["offset"] + entry["length"]
            for mutated in damaged(body, range(start, stop)):
                forged, target = forge(footer, index)
                target["crc32"] = zlib.crc32(mutated[start:stop])
                try:
                    read_back(path, join_store(mutated, forged))
                    outcomes.add("cube")
                except StoreError as error:
                    assert "\n" not in str(error)
                    outcomes.add("error")
        assert outcomes == {"cube", "error"}

    @pytest.mark.parametrize("damage", ["swapped", "repeated"])
    def test_matching_crc_disordered_code_rows_are_error(self, fuzz_store, damage):
        # Only code rows move, so the parent reader would have served the
        # swap as a well-formed cube with two aggregates exchanged.
        cube, path, data = fuzz_store
        body, footer = split_store(data)
        finest = [entry["mask"] for entry in footer["cuboids"]].index(0b11)
        forged, target = forge(footer, len(footer["dictionaries"]) + finest)
        start, stop = target["offset"], target["offset"] + target["length"]
        segment, pos = bytearray(body[start:stop]), 0
        for _ in range(2):  # the two code columns lead the segment
            kind, size, length = COLUMN_PREFIX.unpack_from(segment, pos)
            assert kind == b"u" and length == size * target["groups"]
            pos += COLUMN_PREFIX.size
            first, second = slice(pos, pos + size), slice(pos + size, pos + 2 * size)
            if damage == "swapped":
                segment[first], segment[second] = segment[second], segment[first]
            else:
                segment[second] = segment[first]
            pos += length
        target["crc32"] = zlib.crc32(segment)
        mutated = body[:start] + bytes(segment) + body[stop:]
        with pytest.raises(StoreError, match="not strictly ascending"):
            read_back(path, join_store(mutated, forged))

    def test_matching_crc_lookalike_rows_repeating_a_group_are_error(self, tmp_path):
        # Codes 0, 1, 2 are 1, True, 2: rewriting cuboid a's rows from
        # (1,), (2,) to (1,), (True,) keeps them strictly ascending and in
        # range, yet they are one group twice.
        cube = CubeResult(
            SCHEMA, {(0b01, (1,)): 2, (0b01, (2,)): 3, (0b11, (True, "x")): 1}
        )
        path = tmp_path / "cube.store"
        CubeStore.write(cube, str(path), aggregate="count")
        body, footer = split_store(path.read_bytes())
        forged, target = forge(footer, len(footer["dictionaries"]) + 1)
        assert target["mask"] == 0b01 and target["groups"] == 2
        at = target["offset"] + COLUMN_PREFIX.size + 1  # the second int8 code
        assert body[at] == 2
        mutated = body[:at] + b"\x01" + body[at + 1 :]
        start, stop = target["offset"], target["offset"] + target["length"]
        target["crc32"] = zlib.crc32(mutated[start:stop])
        with pytest.raises(StoreError, match="1 groups, footer promised 2"):
            read_back(path, join_store(mutated, forged))

    @pytest.mark.parametrize("code", ["n", 0x80], ids=["n", "0x80"])
    def test_matching_crc_code_outside_the_dictionary_is_error(
        self, tmp_path, code
    ):
        # Cuboid a's codes are one byte each: the last one becomes the
        # dictionary's size, then int8 -128; both are out of range.
        cube = CubeResult(
            SCHEMA, {(0b01, (1,)): 2, (0b01, (2,)): 3, (0b11, (1, "x")): 1}
        )
        path = tmp_path / "cube.store"
        CubeStore.write(cube, str(path), aggregate="count")
        body, footer = split_store(path.read_bytes())
        size = footer["dictionaries"][0]["count"]
        forged, target = forge(footer, len(footer["dictionaries"]) + 1)
        assert target["mask"] == 0b01 and target["groups"] == 2
        at = target["offset"] + COLUMN_PREFIX.size + 1  # the second int8 code
        assert body[at] == 1
        byte = size if code == "n" else code
        mutated = body[:at] + bytes([byte]) + body[at + 1 :]
        start, stop = target["offset"], target["offset"] + target["length"]
        target["crc32"] = zlib.crc32(mutated[start:stop])
        with pytest.raises(StoreError) as error:
            read_back(path, join_store(mutated, forged))
        assert str(error.value) == (
            f"{path}: segment for cuboid 0x1 at offset {target['offset']}: "
            f"code outside the {size}-value dictionary of dimension 'a'"
        )

    def test_matching_crc_short_length_is_error(self, fuzz_store):
        # A column cut short inside a checksummed region: the footer
        # claims fewer bytes and the CRC agrees with them.
        cube, path, data = fuzz_store
        body, footer = split_store(data)
        count = len(footer["dictionaries"] + footer["cuboids"])
        for index in range(count):
            forged, target = forge(footer, index)
            target["length"] -= 1
            start = target["offset"]
            target["crc32"] = zlib.crc32(body[start : start + target["length"]])
            with pytest.raises(StoreError):
                read_back(path, join_store(body, forged))

    def test_matching_crc_footer_flip_is_error_or_well_formed(self, fuzz_store):
        cube, path, data = fuzz_store
        body, footer = split_store(data)
        raw = json.dumps(footer, sort_keys=True).encode()
        for mutated in damaged(raw, range(len(raw))):
            forged = mutated + b"\n"
            pointer = b"footer %d %d\n" % (len(body), zlib.crc32(forged))
            try:
                read_back(path, body + forged + pointer)
            except StoreError as error:
                assert "\n" not in str(error)


# -- the load-time range check ------------------------------------------------


@st.composite
def code_columns(draw):
    """``(codes, n)``: an unsigned code column of any width, biased to the
    edges (the reader takes only ``u`` code columns)."""
    typecode = draw(st.sampled_from("BHIQ"))
    n = draw(st.integers(0, 300))
    high = (1 << 8 * array(typecode).itemsize) - 1
    edges = [0, 1, n - 1, n, n + 1, 127, 128, 255, 256, high]
    codes = st.one_of(
        st.sampled_from([v for v in edges if 0 <= v <= high]),
        st.integers(0, high),
        st.integers(0, min(max(n - 1, 0), high)),  # in range
    )
    return array(typecode, draw(st.lists(codes, max_size=12))), n


@settings(max_examples=600, deadline=None)
@given(code_columns())
def test_codes_in_range_is_the_min_max_check(column):
    codes, n = column
    expected = not codes or 0 <= min(codes) <= max(codes) < n
    assert _codes_in_range(codes, n) is expected


def test_signed_code_column_is_refused(tmp_path):
    # Codes are never negative, so the reader takes only ``u`` columns:
    # the same bytes relabelled ``i`` (CRC recomputed) are an error.
    cube = CubeResult(SCHEMA, {(0b01, (1,)): 2, (0b01, (2,)): 3})
    path = tmp_path / "cube.store"
    CubeStore.write(cube, str(path), aggregate="count")
    body, footer = split_store(path.read_bytes())
    forged, target = forge(footer, len(footer["dictionaries"]) + 1)
    assert target["mask"] == 0b01
    at = target["offset"]
    assert body[at : at + 1] == b"u"
    mutated = body[:at] + b"i" + body[at + 1 :]
    target["crc32"] = zlib.crc32(mutated[at : at + target["length"]])
    with pytest.raises(StoreError, match="bad column at byte 0"):
        read_back(path, join_store(mutated, forged))


# -- the verified-bytes memo --------------------------------------------------


@pytest.fixture
def typed_store(tmp_path):
    rows, aggregate = FUZZ_CUBES["typed"]
    cube = sequential_cube(Relation(SCHEMA, rows), get_aggregate(aggregate))
    path = tmp_path / "cube.store"
    CubeStore.write(cube, str(path), aggregate=aggregate)
    return cube, path


def crc_forged(data, at, crc):
    """``data`` with its four bytes at ``at`` changed so that its CRC-32
    is ``crc``: CRC-32 is affine over GF(2), so the change solves 32
    linear equations in those 32 bits."""
    zero = zlib.crc32(bytes(len(data)))
    basis = []  # (image, bits), distinct top bits of image, descending
    for bit in range(32):
        flip = bytearray(len(data))
        flip[at + bit // 8] = 1 << bit % 8
        image, bits = zlib.crc32(flip) ^ zero, 1 << bit
        for vector, combination in basis:
            if image ^ vector < image:
                image, bits = image ^ vector, bits ^ combination
        if image:
            basis = sorted(basis + [(image, bits)], reverse=True)
    target, bits = zlib.crc32(data) ^ crc, 0
    for vector, combination in basis:
        if target ^ vector < target:
            target, bits = target ^ vector, bits ^ combination
    assert target == 0
    forged = bytearray(data)
    forged[at : at + 4] = bytes(
        a ^ b for a, b in zip(forged[at : at + 4], bits.to_bytes(4, "little"))
    )
    return bytes(forged)


def test_tampered_reload_runs_the_row_checks_again(typed_store):
    # The bytes change after a first load passed, yet keep their CRC:
    # the two leading code rows swap, and the first aggregate's low four
    # bytes absorb the difference.  Only a memo keyed by the bytes
    # themselves (not by mask, not by CRC) runs the row checks again.
    _, path = typed_store
    with CubeStore.open(str(path), segment_cache_size=1) as store:
        store.cuboid(0b11)
        store.cuboid(0b01)  # evicts 0b11
        entry = store._index[0b11]
        start, stop = entry["offset"], entry["offset"] + entry["length"]
        segment, pos = bytearray(path.read_bytes()[start:stop]), 0
        for _ in range(2):  # swap the first two rows of both code columns
            _, size, length = COLUMN_PREFIX.unpack_from(segment, pos)
            pos += COLUMN_PREFIX.size
            first, second = slice(pos, pos + size), slice(pos + size, pos + 2 * size)
            segment[first], segment[second] = segment[second], segment[first]
            pos += length
        assert COLUMN_PREFIX.unpack_from(segment, pos)[:2] == (b"f", 8)
        tampered = crc_forged(segment, pos + COLUMN_PREFIX.size, entry["crc32"])
        assert zlib.crc32(tampered) == entry["crc32"]
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(tampered)
        # A buffered reader may still hold the old bytes: read afresh.
        store._handle.close()
        store._handle = open(path, "rb")
        with pytest.raises(StoreError, match="not strictly ascending"):
            store.cuboid(0b11)


def test_unchanged_reload_skips_the_row_checks(typed_store, monkeypatch):
    cube, path = typed_store
    checked = []
    check = store_module._check_rows

    def counting(segment, count, where):
        checked.append(where)
        return check(segment, count, where)

    monkeypatch.setattr(store_module, "_check_rows", counting)
    with CubeStore.open(str(path), segment_cache_size=1) as store:
        for _ in range(5):
            for mask in store.masks:
                assert store.cuboid(mask) == cube.cuboid(mask)
        assert len(checked) == len(set(checked)) == len(store.masks)
        assert store.counters.value("serving.segment_load") == 5 * len(
            store.masks
        )


def test_the_store_digest_is_hashlibs_blake2b():
    """The store takes BLAKE2b from ``_blake2`` to skip ``hashlib``'s
    OpenSSL; a CPython whose ``hashlib.blake2b`` stopped being that
    builtin fails here, not silently."""
    import _blake2
    import hashlib

    assert _blake2.blake2b is hashlib.blake2b


# -- the one-byte scan --------------------------------------------------------


def test_wide_dictionary_code_is_no_row_of_a_one_byte_column(tmp_path):
    # Dimension b holds 300 values (codes up to 299), but cuboid ab only
    # the lowest three, so its b column stays one byte per code.
    groups = {(0b10, (b,)): 1 for b in range(300)}
    groups.update({(0b11, ("x", b)): 1 for b in range(3)})
    path = str(tmp_path / "cube.store")
    CubeStore.write(CubeResult(SCHEMA, groups), path, aggregate="count")
    with CubeStore.open(path) as store:
        assert store._segment(0b11).columns[1][0].itemsize == 1
        assert store._segment(0b10).columns[0][0].itemsize == 2
        assert store.rows_matching(0b11, [(1, 299)]) == []
        assert store.rows_matching(0b11, [(1, 2)]) == [(("x", 2), 1)]


def test_lookalike_codes_are_all_found(tmp_path):
    # 1, 1.0 and True are three codes of b, each found by any of them.
    cube = CubeResult(
        SCHEMA,
        {(0b11, ("x", 1)): 1, (0b11, ("y", 1.0)): 2, (0b11, ("z", True)): 3,
         (0b11, ("z", 2)): 4},
    )
    path = str(tmp_path / "cube.store")
    CubeStore.write(cube, path, aggregate="count")
    with CubeStore.open(path) as store:
        assert store._segment(0b11).columns[1][0].itemsize == 1
        for value in (1, 1.0, True):
            rows = store.rows_matching(0b11, [(1, value)])
            assert list(map(repr, rows)) == [
                "(('x', 1), 1)", "(('y', 1.0), 2)", "(('z', True), 3)"
            ]


def assert_rows_matching_is_the_brute_force_filter(path, values_of_c):
    # c has ``values_of_c`` values; a and b stay one byte per code.
    schema = Schema(["a", "b", "c"], "m")
    rows = [(i % 3, i % 5 == 0, i % values_of_c, 1) for i in range(400)]
    cube = sequential_cube(Relation(schema, rows))
    CubeStore.write(cube, path, aggregate="count")
    with CubeStore.open(path) as store:
        width_of_c = store._segment(0b100).columns[0][0].itemsize
        for mask in store.masks:
            groups = store.cuboid(mask)
            width = mask_size(mask)
            probes = list(groups)[:: max(1, len(groups) // 7)] + [("none",) * width]
            for subset in range(1 << width):
                positions = [p for p in range(width) if subset >> p & 1]
                for values in probes:
                    fixed = [(p, values[p]) for p in positions]
                    assert store.rows_matching(mask, fixed) == matching_rows(
                        groups, fixed
                    )
    return width_of_c


def test_rows_matching_is_the_brute_force_filter(tmp_path):
    # 200 values: c's codes 128-199 are one unsigned byte each, so every
    # non-leading fixed c takes the one-byte scan.
    path = str(tmp_path / "cube.store")
    assert assert_rows_matching_is_the_brute_force_filter(path, 200) == 1


def test_rows_matching_is_the_brute_force_filter_on_two_byte_codes(tmp_path):
    path = str(tmp_path / "cube.store")
    assert assert_rows_matching_is_the_brute_force_filter(path, 300) == 2
