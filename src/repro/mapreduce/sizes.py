"""Byte-size estimation for shuffled keys and values.

The simulator charges network and disk costs in *estimated serialized
bytes*.  The estimator below mirrors a compact binary encoding (8-byte
numbers, length-prefixed strings, flat tuple framing) rather than Python's
in-memory object sizes, because what the paper measures — "map output size",
"intermediate data size" — is serialized traffic between mappers and
reducers.

This function runs once per shuffled run key and once per distinct value
object (the engine's routing loop, ``_route_runs``, sizes a repeated key
or value once), so the common shapes (scalars and shallow tuples of
scalars) take an iteration-free fast path; only nested containers
recurse.  Equal values size alike: a bool is the number it equals.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from typing import Iterator, List, NamedTuple, Sequence, Tuple

#: Framing overhead charged per composite value (length/type header).
_CONTAINER_OVERHEAD = 4
#: Fixed-width encoding for numbers, as in Hadoop's LongWritable.
_NUMBER_BYTES = 8


def estimate_bytes(obj) -> int:
    """Estimated serialized size of ``obj`` in bytes.

    Supports the object shapes that flow through the engines: numbers,
    strings, ``None`` (a projected-away attribute), tuples/lists, sets and
    Counters (holistic aggregate states).

    >>> estimate_bytes(42)
    8
    >>> estimate_bytes(("laptop", 2012))  # 4 frame + (4 + 6) str + 8 int
    22
    """
    kind = type(obj)
    if kind is int or kind is float:
        return _NUMBER_BYTES
    if kind is str:
        return _CONTAINER_OVERHEAD + len(obj)
    if kind is tuple or kind is list:
        total = _CONTAINER_OVERHEAD
        for item in obj:
            item_kind = type(item)
            if item_kind is int or item_kind is float:
                total += _NUMBER_BYTES
            elif item_kind is str:
                total += _CONTAINER_OVERHEAD + len(item)
            else:
                total += estimate_bytes(item)
        return total
    return _estimate_slow(obj)


def _estimate_slow(obj) -> int:
    """Rarer shapes: bools, bytes, dicts/Counters, sets, None, objects
    with a ``serialized_bytes()`` method, fallbacks."""
    if obj is None:
        return 1
    if isinstance(obj, (int, float)):  # bools and other numeric subclasses
        return _NUMBER_BYTES
    if isinstance(obj, (str, bytes)):
        return _CONTAINER_OVERHEAD + len(obj)
    if isinstance(obj, Counter):
        return _CONTAINER_OVERHEAD + sum(
            estimate_bytes(key) + _NUMBER_BYTES for key in obj
        )
    if isinstance(obj, dict):
        return _CONTAINER_OVERHEAD + sum(
            estimate_bytes(key) + estimate_bytes(value)
            for key, value in obj.items()
        )
    if isinstance(obj, (set, frozenset, tuple, list)):
        return _CONTAINER_OVERHEAD + sum(
            estimate_bytes(item) for item in obj
        )
    if hasattr(obj, "serialized_bytes"):  # an object sizing itself: a sketch
        return obj.serialized_bytes()
    # Fallback: charge for the repr, which is at least deterministic.
    return _CONTAINER_OVERHEAD + len(repr(obj))


def pair_bytes(key, value) -> int:
    """Serialized size of one shuffled ``(key, value)`` pair."""
    return estimate_bytes(key) + estimate_bytes(value)


#: Cost per item by exact type; a string adds its length, a tuple its items.
_WIDTHS = {int: _NUMBER_BYTES, float: _NUMBER_BYTES, type(None): 1,
           str: _CONTAINER_OVERHEAD, tuple: _CONTAINER_OVERHEAD}


def column_bytes(column: Sequence) -> int:
    """``sum(map(estimate_bytes, column))``, by counting exact types: any
    mix of ints, floats, strings, ``None`` and tuples costs each
    kind's width times its count, plus the strings' lengths and the
    tuples' items (flattened, one more column); only other items are
    sized one by one."""
    types = list(map(type, column))
    kinds, total = set(types), 0
    for kind in kinds:
        of_kind = map(is_, types, repeat(kind))
        items = column if len(kinds) == 1 else list(compress(column, of_kind))
        total += _WIDTHS.get(kind, 0) * len(items)
        if kind is str:
            total += sum(map(len, items))
        elif kind is tuple:
            total += column_bytes(list(chain.from_iterable(items)))
        elif kind not in _WIDTHS:
            total += sum(map(estimate_bytes, items))
    return total


class Block(NamedTuple):
    """One cuboid's share of a reduce task's output as two parallel
    columns — the pairs of :meth:`pairs`, counted and charged as those
    (:func:`blocks_bytes`) without a wrapper object per c-group."""

    mask: int
    groups: List
    values: List

    def pairs(self) -> Iterator[Tuple[Tuple, object]]:
        return zip(zip(repeat(self.mask), self.groups), self.values)


def blocks_bytes(blocks: Sequence[Block]) -> int:
    """``sum(pair_bytes(*pair) for b in blocks for pair in b.pairs())``:
    each pair's ``(mask, group)`` frame and mask, then one
    :func:`column_bytes` pass over all the groups, one over all values."""
    framing = sum(
        (_CONTAINER_OVERHEAD + estimate_bytes(mask)) * len(groups)
        for mask, groups, _values in blocks
    )
    return framing + sum(
        column_bytes(list(chain.from_iterable(map(itemgetter(side), blocks))))
        for side in (1, 2)
    )


def relation_bytes(rows) -> Tuple[int, int]:
    """(record count, total bytes) for an iterable of rows."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += estimate_bytes(row)
    return count, total
