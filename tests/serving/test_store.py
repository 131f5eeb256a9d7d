"""The on-disk cube store: format, laziness, corruption detection."""

import hashlib
import json
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.cubing import sequential_cube
from repro.relation import all_cuboids
from repro.serving import CubeStore, StoreError, estimate_cube_bytes
from repro.serving.store import FORMAT_VERSION, MAGIC

from ..conftest import make_random_relation


@pytest.fixture
def cube(retail_relation):
    return sequential_cube(retail_relation)


@pytest.fixture
def store_path(cube, tmp_path):
    path = str(tmp_path / "retail.store")
    CubeStore.write(cube, path, aggregate="count")
    return path


def header(path):
    """The JSON header the first line of the store at ``path`` carries."""
    first = Path(path).read_bytes().split(b"\n", 1)[0]
    return json.loads(first[len(f"{MAGIC} {FORMAT_VERSION} "):])


def rewrite_footer(path, change):
    """Replace the footer's cuboid index of the store at ``path`` with
    ``change(index)``, under a valid footer CRC and pointer."""
    data = Path(path).read_bytes()
    offset = int(data.rsplit(b"\n", 2)[1].split()[1])
    footer = json.loads(data[offset:].split(b"\n", 1)[0])
    footer["cuboids"] = change(footer["cuboids"])
    raw = json.dumps(footer, sort_keys=True).encode() + b"\n"
    Path(path).write_bytes(
        data[:offset] + raw + b"footer %d %d\n" % (offset, zlib.crc32(raw))
    )


class TestWriteOpen:
    def test_roundtrip_whole_cube(self, cube, store_path):
        with CubeStore.open(store_path) as store:
            assert store.to_cube() == cube

    def test_write_returns_file_size(self, cube, tmp_path):
        path = tmp_path / "cube.store"
        written = CubeStore.write(cube, str(path), aggregate="count")
        assert written == path.stat().st_size > 0

    def test_format_bytes_are_pinned(self, store_path):
        # The writer's output for a fixed cube, byte for byte: a change
        # here is a format change and needs a new FORMAT_VERSION.
        digest = hashlib.sha256(Path(store_path).read_bytes()).hexdigest()
        assert (FORMAT_VERSION, digest[:16]) == (3, "901ae24f423369d9")

    def test_metadata_survives(self, store_path, retail_schema):
        with CubeStore.open(store_path) as store:
            assert store.schema == retail_schema
            assert store.min_group_size == 1
            assert store.total_groups > 0
        recorded = header(store_path)
        assert recorded["aggregate"] == "count"
        assert recorded["aggregate_kind"] == "distributive"

    def test_footer_counts_match_cube(self, cube, store_path):
        with CubeStore.open(store_path) as store:
            assert store.groups_per_cuboid() == cube.groups_per_cuboid()
            assert store.total_groups == cube.num_groups

    def test_every_cuboid_materialized_by_default(self, store_path):
        with CubeStore.open(store_path) as store:
            assert store.masks == tuple(
                sorted(all_cuboids(3), key=lambda m: (bin(m).count("1"), m))
            )

    def test_mask_outside_lattice_rejected(self, store_path):
        # A footer naming a mask past the schema's lattice is refused at
        # open, in one line.
        rewrite_footer(
            store_path,
            lambda cuboids: [dict(cuboids[0], mask=1 << 7), *cuboids[1:]],
        )
        with pytest.raises(StoreError, match="not the 8 of the") as caught:
            CubeStore.open(store_path)
        assert "\n" not in str(caught.value)

    def test_unstorable_value_rejected(self, retail_schema, tmp_path):
        from repro.cubing import CubeResult

        cube = CubeResult(retail_schema, {(0, ()): object()})
        with pytest.raises(StoreError, match="round-trip"):
            CubeStore.write(cube, str(tmp_path / "x.store"))

    def test_empty_cuboid_distinct_from_missing(self, retail_schema, tmp_path):
        from repro.cubing import CubeResult

        empty = CubeResult(retail_schema)
        path = str(tmp_path / "empty.store")
        CubeStore.write(empty, path, aggregate="count")
        with CubeStore.open(path) as store:
            # Written but empty: answers {} rather than erroring.
            assert store.cuboid(0) == {}
            assert store.groups_per_cuboid()[0] == 0


class TestAtomicPublish:
    def unstorable(self, schema):
        from repro.cubing import CubeResult

        return CubeResult(schema, {(0, ()): object()})

    def test_failed_write_leaves_no_file(self, retail_schema, tmp_path):
        with pytest.raises(StoreError):
            CubeStore.write(
                self.unstorable(retail_schema), str(tmp_path / "x.store")
            )
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_store(
        self, cube, store_path, retail_schema, tmp_path
    ):
        before = (tmp_path / "retail.store").read_bytes()
        with pytest.raises(StoreError):
            CubeStore.write(self.unstorable(retail_schema), store_path)
        assert [p.name for p in tmp_path.iterdir()] == ["retail.store"]
        assert (tmp_path / "retail.store").read_bytes() == before
        with CubeStore.open(store_path) as store:
            assert store.to_cube() == cube

    def test_write_interrupted_on_disk_keeps_previous_store(
        self, cube, store_path, tmp_path, monkeypatch
    ):
        # The failure lands after bytes reached the temp file: the
        # target is untouched and the temp file is gone.
        before = (tmp_path / "retail.store").read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.fsync", full_disk)
        with pytest.raises(OSError):
            CubeStore.write(cube, store_path, aggregate="sum")
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["retail.store"]
        assert (tmp_path / "retail.store").read_bytes() == before

    def test_rewrite_replaces_store(self, cube, store_path, retail_schema):
        from repro.cubing import CubeResult

        CubeStore.write(CubeResult(retail_schema), store_path, aggregate="sum")
        with CubeStore.open(store_path) as store:
            assert store.total_groups == 0 < cube.num_groups
        assert header(store_path)["aggregate"] == "sum"


class TestLaziness:
    def test_open_reads_no_segment(self, store_path):
        with CubeStore.open(store_path) as store:
            assert store.counters.value("serving.segment_load") == 0
            assert store.counters.value("serving.bytes_read") == 0

    def test_cuboid_loads_one_segment(self, cube, store_path):
        with CubeStore.open(store_path) as store:
            assert store.cuboid(0b011) == cube.cuboid(0b011)
            assert store.counters.value("serving.segment_load") == 1
            assert store.counters.value("serving.bytes_read") > 0

    def test_repeat_read_hits_cache(self, store_path):
        with CubeStore.open(store_path) as store:
            store.cuboid(0b011)
            store.cuboid(0b011)
            assert store.counters.value("serving.segment_load") == 1
            assert store.counters.value("serving.segment_hit") == 1

    def test_caller_mutation_cannot_poison_segment_cache(self, cube, store_path):
        with CubeStore.open(store_path) as store:
            first = store.cuboid(0b011)
            first[next(iter(first))] = -1
            first["poison"] = -1
            assert store.cuboid(0b011) == cube.cuboid(0b011)
            assert store.cuboid(0b011) is not store.cuboid(0b011)
            assert store.counters.value("serving.segment_load") == 1

    def test_lru_evicts_cold_segments(self, cube, store_path):
        with CubeStore.open(store_path, segment_cache_size=2) as store:
            store.cuboid(0b001)
            store.cuboid(0b010)
            store.cuboid(0b100)  # evicts 0b001
            store.cuboid(0b001)  # reloaded from disk
            assert store.counters.value("serving.segment_load") == 4


class TestPartialStoreRefused:
    """A footer that indexes a strict subset of the lattice (a partial
    store, which no writer makes any more) is refused at open."""

    @pytest.fixture
    def partial_path(self, store_path):
        rewrite_footer(
            store_path,
            lambda cuboids: [c for c in cuboids if c["mask"] != 0b111],
        )
        return store_path

    def test_open_is_one_line_store_error(self, partial_path):
        with pytest.raises(StoreError) as caught:
            CubeStore.open(partial_path)
        message = str(caught.value)
        assert "footer indexes 7 cuboid(s), not the 8" in message
        assert "\n" not in message

    def test_query_exits_with_one_error_line(self, partial_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "query", partial_path,
             '{"op": "total"}'],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), lines
        assert result.stdout == ""


class TestCorruption:
    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_text("definitely not a cube store\n")
        with pytest.raises(StoreError, match="bad magic"):
            CubeStore.open(str(path))

    def test_unsupported_version(self, cube, tmp_path):
        path = tmp_path / "future.store"
        CubeStore.write(cube, str(path), aggregate="count")
        current = f"{MAGIC} {FORMAT_VERSION} ".encode()
        content = path.read_bytes()
        assert content.startswith(current)
        path.write_bytes(f"{MAGIC} 99 ".encode() + content[len(current):])
        with pytest.raises(StoreError, match="version '99'"):
            CubeStore.open(str(path))

    def test_v1_file_refused(self, tmp_path):
        # The v1 text format has no reader any more: one line naming the
        # version, and the store is re-creatable with ``cube --store``.
        path = tmp_path / "v1.store"
        segment = b"()\t3\n"
        footer = (
            b'{"cuboids": [{"crc32": %d, "groups": 1, "length": %d, '
            b'"mask": 0, "offset": 0}]}\n' % (zlib.crc32(segment), len(segment))
        )
        header = b'repro-cube-store 1 {"dimensions": ["a"], "measure": "m"}\n'
        path.write_bytes(
            header + segment + footer
            + b"footer %d %d\n" % (len(header) + len(segment), zlib.crc32(footer))
        )
        with pytest.raises(StoreError) as caught:
            CubeStore.open(str(path))
        message = str(caught.value)
        assert "unsupported store format version '1'" in message
        assert "\n" not in message

    def test_v2_file_refused(self, tmp_path):
        # v2 wrote codes and counts as signed ints and numerals as text;
        # there is no v2 reader: one line naming the version, and the
        # store is re-creatable with ``cube --store``.
        path = tmp_path / "v2.store"
        column = struct.pack("<cBQ", b"i", 1, 1) + b"\x03"  # int8 [3]
        header = b'repro-cube-store 2 {"dimensions": ["a"], "measure": "m"}\n'
        dictionary, segment = len(header), len(header) + len(column)
        footer = (
            b'{"cuboids": [{"crc32": %d, "groups": 1, "length": %d, '
            b'"mask": 0, "offset": %d}], "dictionaries": [{"count": 1, '
            b'"crc32": %d, "length": %d, "offset": %d}]}\n'
            % (zlib.crc32(column), len(column), segment,
               zlib.crc32(column), len(column), dictionary)
        )
        path.write_bytes(
            header + column + column + footer
            + b"footer %d %d\n" % (segment + len(column), zlib.crc32(footer))
        )
        with pytest.raises(StoreError) as caught:
            CubeStore.open(str(path))
        message = str(caught.value)
        assert "unsupported store format version '2'" in message
        assert "\n" not in message

    def test_truncated_footer(self, cube, tmp_path):
        path = tmp_path / "trunc.store"
        CubeStore.write(cube, str(path), aggregate="count")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with pytest.raises(StoreError, match="footer pointer"):
            CubeStore.open(str(path))

    def test_flipped_segment_byte_offset_numbered(self, cube, tmp_path):
        path = tmp_path / "flip.store"
        CubeStore.write(cube, str(path), aggregate="count")
        with CubeStore.open(str(path)) as probe:
            entry = probe._index[0b111]
        data = bytearray(path.read_bytes())
        data[entry["offset"]] ^= 0xFF
        path.write_bytes(bytes(data))
        with CubeStore.open(str(path)) as store:
            with pytest.raises(
                StoreError,
                match=rf"0x7 at offset {entry['offset']}: crc mismatch",
            ):
                store.cuboid(0b111)

    def test_footer_crc_checked(self, cube, tmp_path):
        path = tmp_path / "badfooter.store"
        CubeStore.write(cube, str(path), aggregate="count")
        data = path.read_bytes()
        # Corrupt one byte inside the footer JSON line (second-to-last
        # line), leaving the pointer line intact.
        lines = data.rsplit(b"\n", 2)
        corrupted = lines[0][:-5] + b"X" + lines[0][-4:]
        path.write_bytes(b"\n".join([corrupted, lines[1], lines[2]]))
        with pytest.raises(StoreError, match="crc mismatch"):
            CubeStore.open(str(path))

    def test_crc_actually_crc32(self, cube, tmp_path):
        # Pin the checksum algorithm: recompute one segment's crc32
        # by hand from the raw bytes and compare with the footer.
        path = tmp_path / "crc.store"
        CubeStore.write(cube, str(path), aggregate="count")
        with CubeStore.open(str(path)) as store:
            entry = store._index[0b111]
        raw = path.read_bytes()[
            entry["offset"] : entry["offset"] + entry["length"]
        ]
        assert zlib.crc32(raw) == entry["crc32"]


class TestEstimate:
    def test_estimate_scales_with_cube(self):
        small = sequential_cube(make_random_relation(20, seed=1))
        large = sequential_cube(make_random_relation(400, seed=1))
        assert estimate_cube_bytes(small) > 0
        assert estimate_cube_bytes(large) > estimate_cube_bytes(small)
