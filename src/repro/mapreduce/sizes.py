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
recurse.  There is deliberately no global memo here: a type-strict memo
key costs more to build than the sizes it would save (``(1,)`` and
``(True,)`` are equal yet 12 vs 5 bytes, so equality alone cannot key a
cache).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
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
    """Rarer shapes: bools, bytes, dicts/Counters, sets, None, fallbacks."""
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):  # bool-excluded numeric subclasses
        return _NUMBER_BYTES
    if isinstance(obj, str):
        return _CONTAINER_OVERHEAD + len(obj)
    if isinstance(obj, bytes):
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
    # Fallback: charge for the repr, which is at least deterministic.
    return _CONTAINER_OVERHEAD + len(repr(obj))


def pair_bytes(key, value) -> int:
    """Serialized size of one shuffled ``(key, value)`` pair."""
    return estimate_bytes(key) + estimate_bytes(value)


def column_bytes(column: Sequence) -> int:
    """``sum(map(estimate_bytes, column))``, by arithmetic on the exact
    types where the column is homogeneous (``bool`` and ``None`` are no
    numbers here either: they go to the per-item estimator).  Tuples of
    one arity — a cuboid's groups, ``(mask, group)`` keys — are sized
    position by position, others flattened."""
    count, kinds = len(column), set(map(type, column))
    if kinds <= {int, float}:
        return _NUMBER_BYTES * count
    if kinds == {str}:
        return _CONTAINER_OVERHEAD * count + sum(map(len, column))
    if kinds == {tuple}:
        arities = set(map(len, column))
        if len(arities) == 1:  # one position's column alive at a time
            positions = range(arities.pop())
            inner = (list(map(itemgetter(at), column)) for at in positions)
        else:
            inner = [list(chain.from_iterable(column))]
        return _CONTAINER_OVERHEAD * count + sum(map(column_bytes, inner))
    return sum(map(estimate_bytes, column))


class Block(NamedTuple):
    """One cuboid's share of a reduce task's output as two parallel
    columns — the pairs of :meth:`pairs`, which is what it is counted and
    charged as, without a wrapper object per c-group."""

    mask: int
    groups: List
    values: List

    def pairs(self) -> Iterator[Tuple[Tuple, object]]:
        return zip(zip(repeat(self.mask), self.groups), self.values)

    def bytes(self) -> int:
        """``sum(pair_bytes(*pair) for pair in self.pairs())``."""
        framing = _CONTAINER_OVERHEAD + estimate_bytes(self.mask)
        return framing * len(self.groups) + sum(map(column_bytes, self[1:]))


def relation_bytes(rows) -> Tuple[int, int]:
    """(record count, total bytes) for an iterable of rows."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += estimate_bytes(row)
    return count, total
