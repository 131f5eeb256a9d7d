"""The on-disk cube store: columnar per-cuboid segments behind a footer index.

``io.write_cube`` flattens a cube into one TSV stream — fine as an export,
useless as a serving artifact: answering ``rollup("name")`` means scanning
every c-group of every cuboid.  :class:`CubeStore` is the read-optimized
counterpart.  A store file (format version 3) is laid out as

* a **header line** — magic, format version, and a JSON blob carrying the
  schema, the aggregate's name/kind, and the iceberg threshold the cube
  was computed with;
* one **dictionary** per dimension — the sorted distinct values of that
  dimension across the whole store, written once as a single column, so
  a value's position is its dense, order-preserving *code*;
* one **segment** per cuboid of the lattice, segments in bottom-up BFS
  order — one code column per dimension in the cuboid's mask plus one
  aggregate column, rows in ascending code order (the ``<_C`` order the
  engines shuffle in, because the dictionaries preserve order);
* a **footer** — a JSON line indexing every dictionary and segment by
  byte offset, length, value/group count and CRC-32;
* a fixed-format **footer pointer** as the last line, so a reader finds
  the index with one seek from the end.

Every **column** — dictionary, codes or aggregates — is a 10-byte
``kind, item size, payload length`` prefix plus a payload in the
narrowest *exact* encoding of its values' types:

``u``  all ``int``, none negative: the narrowest of uint8/16/32/64 that
       fits, little-endian; code columns are always ``u``;
``i``  any other all-``int`` column: the narrowest of int8/16/32/64;
``f``  all ``float`` (finite): float64, little-endian;
``n``  all ``str``, each the canonical decimal numeral of an int that
       fits int64 or uint64 (``str(int(v)) == v``): a ``u``/``i``
       column of those ints, in the column's own order;
``s``  any other all-``str`` column: a ``u`` column of character
       lengths, then the concatenated UTF-8 text (``surrogatepass``);
``g``  anything else — ``None``, ``bool``, tuples such as ``top_k``,
       ints beyond 64 bits, mixed types: ``repr`` of the value list, read
       back with one ``ast.literal_eval`` and verified equal at write.

The typed kinds are type-exact by construction (``1`` never comes back
as ``1.0``, ``True`` or ``"1"``, ``-0.0`` keeps its sign); the generic
kind keeps a write-time :class:`StoreError` for values that do not
survive ``repr``/``literal_eval`` (``nan``, ``inf``, arbitrary objects).
A dimension whose values do not compare (``None`` next to ints) is stored
in ``repr`` order instead of failing.  A file of another format version
(v1 text, v2 signed-only columns) is refused with a one-line version
error, and a footer that does not index exactly the schema's lattice
(a partial store) with a one-line lattice error; re-create either with
``cube --store``.

:meth:`CubeStore.open` reads only the header and footer; dictionaries
and segment bytes are fetched (and CRC-checked) on first touch, so a
point or slice query pays for exactly the cuboids it reads.  A small LRU
keeps hot segments as loaded — code columns, not decoded groups — and
:meth:`CubeStore.rows_matching` selects in code space, decoding only the
rows that match.  Corruption anywhere — bad magic, truncated footer, a
flipped byte in a segment, code rows out of order — fails with a one-line,
offset-numbered :class:`StoreError` instead of silently serving wrong
aggregates; a reload skips only the row checks its exact bytes passed
before.  :meth:`CubeStore.write` publishes atomically: the bytes go
to a sibling temp file, are fsynced, and replace ``path`` in one rename,
so a failed or interrupted write leaves the previous store (or nothing).
"""

from __future__ import annotations

import ast
import json
import math
import os
import struct
import sys
import threading
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import accumulate, chain, compress, islice
from operator import eq, itemgetter, lt
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from .._gc import paused_gc
from ..aggregates import get_aggregate
from ..cubing.result import CubeResult
from ..cubing.result import estimate_cube_bytes  # noqa: F401  (re-exported)
from ..relation.lattice import (
    all_cuboids, group_sort_key, mask_dimensions, mask_size,
)
from ..relation.schema import Schema

#: First token of a store file; the format version follows it.
MAGIC = "repro-cube-store"
FORMAT_VERSION = 3

#: Default number of decoded segments kept hot per store.
DEFAULT_SEGMENT_CACHE = 16


class StoreError(ValueError):
    """Raised when a store file is malformed, truncated, or corrupt."""


class ServingCounters:
    """Shared read-path counters (``serving.*``).

    One instance is threaded through a store, its view, and the server
    so a single ``/stats`` read shows the whole pipeline.  All methods
    are cheap enough to call unguarded; thread safety comes from the
    caller's lock (the store and the server serialize their cache access).
    """

    FIELDS = (
        "serving.cache_hit",        # reply-cache hits (server)
        "serving.cache_miss",       # reply-cache misses (server)
        "serving.segment_hit",      # decoded-segment LRU hits (store)
        "serving.segment_load",     # segments fetched from disk (store)
        "serving.bytes_read",       # raw segment + dictionary bytes read
        # Always 0: every store holds the whole lattice, so no cuboid is
        # rebuilt from an ancestor.  Kept because the benchmark suite's
        # serving probe reads it unguarded.
        "serving.reaggregations",
        "serving.connections",      # connections accepted by the server
        "serving.requests",         # queries answered: cache hit or admitted
        "serving.shed",             # queries or connections refused (503)
        "serving.deadline_exceeded",  # queries cut at the deadline (504)
        "serving.query_errors",     # queries rejected as unanswerable (400)
        "serving.bad_requests",     # framing errors answered 400/413, closed
        "serving.disconnects",      # clients gone mid-request or mid-reply
    )

    def __init__(self):
        self._counts = {field: 0 for field in self.FIELDS}

    def bump(self, field: str, amount: int = 1) -> None:
        self._counts[field] += amount

    def value(self, field: str) -> int:
        return self._counts[field]

    def to_dict(self) -> Dict[str, int]:
        return dict(self._counts)


#: Column prefix: kind, item size (fixed-width kinds, else 0), payload bytes.
_COLUMN = struct.Struct("<cBQ")
#: ``(kind, item size)`` -> ``array`` typecode of the fixed-width kinds.
_TYPECODES = {
    (b"i", 1): "b", (b"i", 2): "h", (b"i", 4): "i", (b"i", 8): "q",
    (b"u", 1): "B", (b"u", 2): "H", (b"u", 4): "I", (b"u", 8): "Q",
    (b"f", 8): "d",
}
#: What decoding corrupt-but-CRC-clean column bytes can raise.
_DECODE_ERRORS = (ValueError, SyntaxError, TypeError, RecursionError, MemoryError)
#: Every uint8 code.  Deleting its first ``n`` bytes from a 1-byte column
#: in one C call must leave nothing.
_IN_RANGE = bytes(range(256))


def _codes_in_range(codes: array, n: int) -> bool:
    """Every (unsigned) code below ``n``; 1-byte columns are checked in C."""
    if codes.itemsize == 1:
        return not codes.tobytes().translate(None, _IN_RANGE[:n])
    return not codes or max(codes) < n


def _int_width(low: int, high: int) -> Optional[Tuple[bytes, int]]:
    """``(kind, item size)`` of the narrowest exact array for ints in
    ``low .. high``: ``u`` when none is negative, else ``i``; None past
    64 bits."""
    if low >= 0:
        kind, bits = b"u", high.bit_length()
    else:
        kind, bits = b"i", max(high, ~low).bit_length() + 1
    return next(((kind, s) for s in (1, 2, 4, 8) if bits <= 8 * s), None)


def _numerals(values: Sequence[str]) -> Optional[array]:
    """``values`` as a 64-bit int array when each is the canonical decimal
    numeral of its int (``str(int(v)) == v``), else None.  The array is
    the only copy: the check streams."""
    for typecode in "qQ":
        try:
            ints = array(typecode, map(int, values))
        except OverflowError:  # past int64, or negative for uint64
            continue
        except ValueError:  # not a numeral, or too long for int()
            return None
        return ints if all(map(eq, map(str, ints), values)) else None
    return None


def _unstorable(values: Sequence) -> StoreError:
    """The one-line error naming the first value of a rejected column."""
    for value in values:
        text = repr(value)
        try:
            if ast.literal_eval(text) == value:
                continue
        except _DECODE_ERRORS:
            pass
        return StoreError(
            f"value {text[:60]!r} of type {type(value).__name__} does not "
            "round-trip through repr/literal_eval and cannot be stored"
        )
    return StoreError("column does not round-trip through repr/literal_eval")


def _pack(values: Sequence) -> bytes:
    """Encode one column in the narrowest exact kind of its values."""
    types = set(map(type, values))
    kind, itemsize = b"g", 0
    if types <= {int}:
        width = _int_width(min(values, default=0), max(values, default=0))
        if width:
            kind, itemsize = width
            column = array(_TYPECODES[width], values)
    elif types == {float}:
        if not all(map(math.isfinite, values)):
            raise _unstorable(values)
        kind, itemsize = b"f", 8
        column = array("d", values)
    elif types == {str}:
        ints = _numerals(values)
        kind = b"s" if ints is None else b"n"
    if itemsize:
        if sys.byteorder == "big":
            column.byteswap()
        payload = column.tobytes()
    elif kind == b"n":
        payload = _pack(ints)
    elif kind == b"s":
        payload = _pack(list(map(len, values))) + "".join(values).encode(
            "utf-8", "surrogatepass"
        )
    else:
        listed = list(values)
        text = repr(listed)
        try:
            exact = ast.literal_eval(text) == listed
        except _DECODE_ERRORS:
            exact = False
        if not exact:
            raise _unstorable(values)
        payload = text.encode("utf-8")
    return _COLUMN.pack(kind, itemsize, len(payload)) + payload


def _unpack(
    raw: bytes, pos: int, count: int, where: str, kinds: bytes = b"iufnsg"
) -> Tuple[Sequence, int]:
    """Decode the ``count``-value column at ``raw[pos:]``.

    Returns ``(values, end position)``; anything malformed — unknown or
    disallowed kind, lengths past the buffer, undecodable payload, wrong
    value count — is a one-line :class:`StoreError` prefixed ``where``.
    """
    start = pos + _COLUMN.size
    if start > len(raw):
        raise StoreError(f"{where}: truncated column prefix at byte {pos}")
    kind, itemsize, length = _COLUMN.unpack_from(raw, pos)
    end = start + length
    if kind not in kinds or end > len(raw):
        raise StoreError(
            f"{where}: bad column at byte {pos} (kind {kind!r}, {length} bytes)"
        )
    payload = raw[start:end]
    try:
        if kind in b"iuf":
            values = array(_TYPECODES[kind, itemsize])
            values.frombytes(payload)
            if sys.byteorder == "big":
                values.byteswap()
        elif kind == b"n":
            ints, ints_end = _unpack(payload, 0, count, where, b"iu")
            if ints_end != len(payload):
                raise ValueError("numeral column has trailing bytes")
            values = list(map(str, ints))
        elif kind == b"s":
            lengths, text_start = _unpack(payload, 0, count, where, b"u")
            text = payload[text_start:].decode("utf-8", "surrogatepass")
            ends = list(accumulate(lengths, initial=0))
            if ends[-1] != len(text):
                raise ValueError("string lengths disagree with the text")
            values = [text[a:b] for a, b in zip(ends, ends[1:])]
        else:
            values = ast.literal_eval(payload.decode("utf-8"))
            if type(values) is not list:
                raise ValueError("generic column is not a list")
    except StoreError:
        raise
    except (KeyError, *_DECODE_ERRORS) as exc:
        raise StoreError(
            f"{where}: undecodable {kind.decode()!r} column at byte {pos}: "
            f"{type(exc).__name__}"
        ) from None
    if len(values) != count:
        raise StoreError(
            f"{where}: column at byte {pos} holds {len(values)} values, "
            f"expected {count}"
        )
    return values, end


def _dimension_dictionary(
    distinct: set, by_repr: Dict[str, object]
) -> Tuple[List, Callable[[object], int]]:
    """Sorted distinct values of one dimension and its ``value -> code``.

    ``distinct`` holds values deduped by equality while the dimension
    was all-``int`` or all-``str`` (exact for them), ``by_repr`` the rest
    by ``repr``: look-alikes (``1``/``1.0``/``True``, ``0.0``/``-0.0``)
    keep separate codes, in ``repr`` order when they do not compare.
    """
    if not by_repr:
        values = sorted(distinct)
        return values, {v: code for code, v in enumerate(values)}.__getitem__
    by_repr.update(zip(map(repr, distinct), distinct))
    try:
        items = sorted(by_repr.items(), key=lambda item: (item[1], item[0]))
    except TypeError:
        items = sorted(by_repr.items())
    codes = {text: code for code, (text, _) in enumerate(items)}
    return [v for _, v in items], lambda v: codes[repr(v)]


def _dictionaries(
    cube: CubeResult, masks: Sequence[int], num_dimensions: int
) -> Tuple[Tuple[List, ...], Tuple[Callable[[object], int], ...]]:
    """Each dimension's :func:`_dimension_dictionary` over its column in
    every cuboid of ``masks``, transposing one cuboid at a time."""
    types = [set() for _ in range(num_dimensions)]
    distinct = [set() for _ in range(num_dimensions)]
    by_repr: List[Dict[str, object]] = [{} for _ in range(num_dimensions)]
    for mask in masks:
        groups, _ = cube.columns(mask)
        for dim, column in zip(
            mask_dimensions(mask, num_dimensions), zip(*groups)
        ):
            types[dim].update(map(type, column))
            if types[dim] <= {int} or types[dim] <= {str}:
                distinct[dim].update(column)
            else:
                by_repr[dim].update(zip(map(repr, column), column))
    return tuple(zip(*map(_dimension_dictionary, distinct, by_repr)))


def _index_entries(entries: List[Dict], keys: Sequence[str], limit: int):
    """Footer index ``entries``, checked: a CRC-clean footer can still lie
    (a forged file), so every entry must hold non-negative ints under
    ``keys`` and name bytes that end before ``limit``."""
    for entry in entries:
        if any(type(entry[k]) is not int or entry[k] < 0 for k in keys) or (
            entry["offset"] + entry["length"] > limit
        ):
            raise ValueError(f"bad index entry {entry!r}")
    return entries


class _Segment(NamedTuple):
    """One cuboid as it is on disk, and as the LRU holds it.  Immutable
    once loaded, so readers share it without a lock."""

    #: Per dimension: code column, store dictionary (``code -> value``)
    #: and that dictionary's index (``value -> codes``).
    columns: List[Tuple[array, Sequence, Dict]]
    aggregates: Sequence

    def pairs(self, rows: Optional[Sequence[int]] = None) -> Iterable[Tuple]:
        """``(values, aggregate)`` of the rows numbered ``rows`` (default:
        every row), decoded through the dictionaries."""
        if rows is None:
            count, pick = len(self.aggregates), iter
        else:
            count, pick = len(rows), lambda column: map(column.__getitem__, rows)
        keys = [map(values.__getitem__, pick(c)) for c, values, _ in self.columns]
        return zip(zip(*keys) if keys else [()] * count, pick(self.aggregates))

    def rows_matching(self, fixed: Iterable[Tuple[int, object]]) -> List[Tuple]:
        """The ``(values, aggregate)`` rows whose value at every
        ``(position, value)`` of ``fixed`` equals (``==``) the given one,
        in row order.  Each value becomes its dictionary codes (none: no
        row); a fixed leading column is bisected, the first other one
        scanned with ``bytes.translate`` when its codes are one byte
        each, any other compared in C, and only the surviving rows are
        decoded."""
        rows: Sequence[int] = range(len(self.aggregates))
        for position, value in sorted(fixed, key=itemgetter(0)):
            column, _, index = self.columns[position]
            codes = index.get(value, ())
            if position == 0:  # rows ascend in code order
                spans = (
                    range(bisect_left(column, c), bisect_right(column, c))
                    for c in codes
                )
                rows = list(chain.from_iterable(spans))
            elif type(rows) is range and column.itemsize == 1:
                table = bytearray(256)  # code -> 1 if it is the value's
                for code in codes:
                    if code < 256:  # a wider code cannot be in the column
                        table[code] = 1
                rows = list(compress(rows, column.tobytes().translate(table)))
            else:
                cells = column if type(rows) is range else map(column.__getitem__, rows)
                rows = list(compress(rows, map(codes.__contains__, cells)))
        return list(self.pairs(rows))


def _check_rows(segment: _Segment, count: int, where: str) -> None:
    """The checks of a decoded segment's rows as a whole."""
    # Strictly ascending code rows: what the writer emits, what licenses
    # the bisect, and proof that no group repeats.
    coded = [codes for codes, _, _ in segment.columns]
    later = zip(*(islice(codes, 1, None) for codes in coded))
    if not (all(map(lt, zip(*coded), later)) if coded else count <= 1):
        raise StoreError(f"{where}: code rows are not strictly ascending")
    # Look-alike values are equal under distinct codes: only with them
    # can distinct code rows still repeat a group, so count the groups.
    if any(len(index) < len(values) for _, values, index in segment.columns):
        groups = len(dict(segment.pairs()))
        if groups != count:
            raise StoreError(
                f"{where}: {groups} groups, footer promised {count}"
            )


class CubeStore:
    """A cube materialized as an offset-indexed, lazily-read store file.

    Build one with :meth:`write`, read one with :meth:`open`::

        CubeStore.write(run.cube, "cube.store", aggregate="count")
        store = CubeStore.open("cube.store")
        store.cuboid(0b101)        # {values: aggregate}, one seek + read

    ``open`` returns a handle that keeps the file open; use it as a
    context manager or call :meth:`close`.  An open store has the read
    surface of a ``CubeResult`` that :class:`~repro.query.view.CubeView`
    queries through, so the view reads it directly.
    """

    def __init__(
        self,
        path: str,
        handle,
        schema: Schema,
        index: "OrderedDict[int, Dict]",
        dictionary_index: List[Dict],
        store_bytes: int,
        segment_cache_size: int = DEFAULT_SEGMENT_CACHE,
        counters: Optional[ServingCounters] = None,
    ):
        self.path = path
        self.schema = schema
        self.store_bytes = store_bytes
        self.counters = counters or ServingCounters()
        self._handle = handle
        self._index = index
        self._dictionary_index = dictionary_index
        self._dictionaries: Dict[int, Tuple[Sequence, Dict]] = {}
        self._cache: "OrderedDict[int, _Segment]" = OrderedDict()
        self._cache_size = max(1, segment_cache_size)
        # ``hashlib.blake2b`` itself, without ``hashlib``'s OpenSSL
        # (~3.5 MB of RSS); only :meth:`open` constructs a store.
        from _blake2 import blake2b

        self._blake2b = blake2b
        #: ``mask -> BLAKE2b-128`` of the segment bytes that passed the
        #: row checks.
        self._verified: Dict[int, bytes] = {}
        self._lock = threading.RLock()

    # -- writing -------------------------------------------------------------

    @classmethod
    @paused_gc()  # a cuboid at a time: ~2 cycle-free objects per group
    def write(
        cls,
        cube: CubeResult,
        path: str,
        aggregate: Optional[object] = None,
        min_group_size: int = 1,
    ) -> int:
        """Persist every cuboid of ``cube``'s lattice at ``path``;
        returns the bytes written.

        Cuboids with no groups are written as empty segments.
        ``aggregate`` (an :class:`AggregateFunction` or registry name)
        and ``min_group_size`` (the iceberg threshold the cube was
        computed with) are recorded in the header.
        """
        schema = cube.schema
        masks = all_cuboids(schema.num_dimensions)
        aggregate_name = aggregate_kind = None
        if aggregate is not None:
            if isinstance(aggregate, str):
                aggregate = get_aggregate(aggregate)
            aggregate_name = aggregate.name
            aggregate_kind = aggregate.kind.value

        num_dimensions = schema.num_dimensions
        dictionaries, encoders = _dictionaries(cube, masks, num_dimensions)

        header = {
            "dimensions": list(schema.dimensions),
            "measure": schema.measure,
            "aggregate": aggregate_name,
            "aggregate_kind": aggregate_kind,
            "min_group_size": min_group_size,
            "total_groups": cube.num_groups,
        }
        chunks = [
            f"{MAGIC} {FORMAT_VERSION} "
            f"{json.dumps(header, sort_keys=True)}\n".encode("utf-8")
        ]
        offset = len(chunks[0])

        def append(raw: bytes, **entry) -> Dict:
            nonlocal offset
            chunks.append(raw)
            entry.update(offset=offset, length=len(raw), crc32=zlib.crc32(raw))
            offset += len(raw)
            return entry

        dictionary_entries = [
            append(_pack(values), count=len(values)) for values in dictionaries
        ]
        entries = []
        for mask in sorted(masks, key=lambda m: group_sort_key(m, ())):
            dims = mask_dimensions(mask, num_dimensions)
            groups, values = cube.columns(mask)
            # Codes are order-preserving, so sorting code rows sorts the
            # groups in <_C order without comparing dimension values.
            codes = [
                map(encoders[dim], column)
                for dim, column in zip(dims, zip(*groups))
            ]
            rows = sorted(zip(*codes, values))
            columns = list(zip(*rows)) or [()] * (len(dims) + 1)
            segment = b"".join(map(_pack, columns))
            entries.append(append(segment, mask=mask, groups=len(rows)))
        footer = json.dumps(
            {"cuboids": entries, "dictionaries": dictionary_entries},
            sort_keys=True,
        ).encode("utf-8") + b"\n"
        chunks.append(footer)
        chunks.append(f"footer {offset} {zlib.crc32(footer)}\n".encode())

        # Atomic publish: the store appears at ``path`` complete and
        # durable, or not at all.
        temp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(temp, "wb") as handle:
                handle.writelines(chunks)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
        return sum(map(len, chunks))

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        segment_cache_size: int = DEFAULT_SEGMENT_CACHE,
        counters: Optional[ServingCounters] = None,
    ) -> "CubeStore":
        """Open a store for querying; loads only the header and footer."""
        size = os.path.getsize(path)
        handle = open(path, "rb")
        try:
            return cls._open_handle(
                path, handle, size, segment_cache_size, counters
            )
        except Exception:
            handle.close()
            raise

    @classmethod
    def _open_handle(cls, path, handle, size, segment_cache_size, counters):
        first = handle.readline()
        prefix = f"{MAGIC} {FORMAT_VERSION} ".encode()
        if not first.startswith(f"{MAGIC} ".encode()):
            raise StoreError(f"{path}: not a repro cube store (bad magic)")
        if not first.startswith(prefix):
            raise StoreError(
                f"{path}: unsupported store format version "
                f"{first.split()[1].decode(errors='replace')!r} "
                f"(reader supports {FORMAT_VERSION})"
            )
        try:
            header = json.loads(first[len(prefix):].decode("utf-8"))
        except ValueError:
            raise StoreError(f"{path}: header line is not valid JSON") from None

        # The footer pointer is the short fixed-format last line; 64
        # bytes from the end always covers it.
        tail_start = max(0, size - 64)
        handle.seek(tail_start)
        tail_lines = handle.read().splitlines()
        if not tail_lines or not tail_lines[-1].startswith(b"footer "):
            raise StoreError(
                f"{path}: truncated store — footer pointer line missing"
            )
        parts = tail_lines[-1].split()
        try:
            footer_offset, footer_crc = int(parts[1]), int(parts[2])
            if not 0 <= footer_offset < size:
                raise ValueError(footer_offset)
        except (IndexError, ValueError):
            raise StoreError(
                f"{path}: malformed footer pointer "
                f"{tail_lines[-1].decode(errors='replace')!r}"
            ) from None
        handle.seek(footer_offset)
        footer_raw = handle.readline()
        if zlib.crc32(footer_raw) != footer_crc:
            raise StoreError(
                f"{path}: footer at offset {footer_offset}: crc mismatch "
                f"(expected {footer_crc}, got {zlib.crc32(footer_raw)})"
            )

        try:
            footer = json.loads(footer_raw.decode("utf-8"))
            schema = Schema(header["dimensions"], measure=header["measure"])
            cuboids = _index_entries(
                footer["cuboids"],
                ("mask", "offset", "length", "groups", "crc32"),
                footer_offset,
            )
            dictionaries = _index_entries(
                footer["dictionaries"],
                ("offset", "length", "count", "crc32"),
                footer_offset,
            )
            index: "OrderedDict[int, Dict]" = OrderedDict(
                (entry["mask"], entry) for entry in cuboids
            )
            if len(dictionaries) != schema.num_dimensions:
                raise ValueError(f"{len(dictionaries)} dictionaries")
            store = cls(
                path,
                handle,
                schema,
                index,
                dictionaries,
                size,
                segment_cache_size=segment_cache_size,
                counters=counters,
            )
            store.total_groups = int(header.get("total_groups", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{path}: invalid header/footer: {exc}") from None
        lattice = all_cuboids(schema.num_dimensions)
        if len(cuboids) != len(lattice) or set(index) != set(lattice):
            raise StoreError(
                f"{path}: footer indexes {len(cuboids)} cuboid(s), not the "
                f"{len(lattice)} of the {schema.num_dimensions}-dimension "
                "lattice; re-create it with 'repro cube --store'"
            )
        return store

    # -- reading -------------------------------------------------------------

    @property
    def masks(self) -> Tuple[int, ...]:
        """Every cuboid mask of the lattice, in on-disk (BFS) order."""
        return tuple(self._index)

    @property
    def num_groups(self) -> int:
        return self.total_groups

    def groups_per_cuboid(self) -> Dict[int, int]:
        """``{mask: group count}`` for every cuboid, from the footer."""
        return {mask: entry["groups"] for mask, entry in self._index.items()}

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        """One cuboid's ``{values: aggregate}``: a fresh dict per call,
        decoded from the lazily loaded (and cached) segment columns."""
        return dict(self._segment(mask).pairs())

    def rows_matching(self, mask: int, fixed) -> List[Tuple[Tuple, object]]:
        """``CubeResult.rows_matching`` for one cuboid, in code space."""
        return self._segment(mask).rows_matching(fixed)

    def value(self, mask: int, values: Tuple):
        """A point lookup; ``KeyError`` when absent, as a dict would."""
        if len(values) == mask_size(mask):
            for _, value in self.rows_matching(mask, enumerate(values)):
                return value
        raise KeyError((mask, values))

    def _segment(self, mask: int) -> _Segment:
        with self._lock:
            cached = self._cache.get(mask)
            if cached is not None:
                self._cache.move_to_end(mask)
                self.counters.bump("serving.segment_hit")
                return cached
            segment = self._load_segment(mask, self._index[mask])
            self._cache[mask] = segment
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return segment

    def _read(self, entry: Dict, where: str) -> bytes:
        """The CRC-checked bytes of one footer-indexed dictionary/segment."""
        offset, length = entry["offset"], entry["length"]
        self.counters.bump("serving.bytes_read", length)
        self._handle.seek(offset)
        raw = self._handle.read(length)
        if len(raw) != length:
            raise StoreError(
                f"{where}: truncated ({len(raw)} of {length} bytes)"
            )
        if zlib.crc32(raw) != entry["crc32"]:
            raise StoreError(
                f"{where}: crc mismatch (expected {entry['crc32']}, "
                f"got {zlib.crc32(raw)})"
            )
        return raw

    def _dictionary(self, dim: int) -> Tuple[Sequence, Dict]:
        """One dimension's ``code -> value`` sequence and ``value ->
        codes`` index, loaded on first use.  The index has the ``==``
        semantics of a scan: look-alikes (``1``/``1.0``/``True``) share
        an entry holding each one's code, ascending."""
        loaded = self._dictionaries.get(dim)
        if loaded is None:
            entry = self._dictionary_index[dim]
            where = (
                f"{self.path}: dictionary for dimension "
                f"{self.schema.dimensions[dim]!r} at offset {entry['offset']}"
            )
            raw = self._read(entry, where)
            values, end = _unpack(raw, 0, entry["count"], where)
            if end != len(raw):
                raise StoreError(f"{where}: {len(raw) - end} trailing bytes")
            index: Dict[object, Tuple[int, ...]] = {}
            try:
                for code, value in enumerate(values):
                    index[value] = index.get(value, ()) + (code,)
            except TypeError:
                raise StoreError(f"{where}: unhashable group value") from None
            loaded = self._dictionaries[dim] = (values, index)
        return loaded

    def _load_segment(self, mask: int, entry: Dict) -> _Segment:
        where = (
            f"{self.path}: segment for cuboid 0x{mask:x} at offset "
            f"{entry['offset']}"
        )
        self.counters.bump("serving.segment_load")
        raw = self._read(entry, where)
        count, pos = entry["groups"], 0
        columns = []
        for dim in mask_dimensions(mask, self.schema.num_dimensions):
            values, index = self._dictionary(dim)
            codes, pos = _unpack(raw, pos, count, where, b"u")
            if not _codes_in_range(codes, len(values)):
                raise StoreError(
                    f"{where}: code outside the {len(values)}-value "
                    f"dictionary of dimension {self.schema.dimensions[dim]!r}"
                )
            columns.append((codes, values, index))
        aggregates, pos = _unpack(raw, pos, count, where)
        if pos != len(raw):
            raise StoreError(f"{where}: {len(raw) - pos} trailing bytes")
        segment = _Segment(columns, aggregates)
        # The row checks are Python loops over every row; the same bytes
        # over the same dictionaries pass them again, so a reload of
        # bytes that already passed skips them.
        digest = self._blake2b(raw, digest_size=16).digest()
        if self._verified.get(mask) != digest:
            _check_rows(segment, count, where)
            self._verified[mask] = digest
        return segment

    def to_cube(self) -> CubeResult:
        """Materialize the whole store back into a :class:`CubeResult`."""
        cube = CubeResult(self.schema)
        for mask in self._index:
            for values, value in self._segment(mask).pairs():
                cube.add(mask, values, value)
        return cube

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CubeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CubeStore({self.path!r}, {len(self._index)} cuboids, "
            f"{self.store_bytes} bytes)"
        )
