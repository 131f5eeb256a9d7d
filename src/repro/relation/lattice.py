"""Cube and tuple lattices (paper Section 2.2).

Cuboids are represented as *bitmasks* over the ``d`` dimension attributes:
bit ``i`` set means dimension ``Ai`` participates in the group-by.  The full
cuboid is ``(1 << d) - 1`` and the apex cuboid ``(*, *, ..., *)`` is ``0``.

A *c-group* (cube group) is a pair ``(mask, values)`` where ``values`` is the
tuple of the row's dimension values at the positions set in ``mask``, in
dimension order.  Lexicographic comparison of two groups of the same cuboid
is plain tuple comparison of their ``values`` — exactly the paper's ``<_C``
order, made total over ``None`` and mixed types by :func:`sort_token`.

Both lattices of the paper are views over this mask algebra:

* the **cube lattice** (Figure 1) has one node per mask; cuboid ``C'`` is a
  *descendant* of ``C`` iff ``C'``'s mask is ``C``'s with one bit cleared;
* the **tuple lattice** of a row ``t`` (Figure 2) has one node per mask,
  holding the projection of ``t`` onto that mask.  Nodes correspond exactly
  to the c-groups ``t`` contributes to.

The BFS bottom-up order used by SP-Cube's mapper and reducer (Algorithm 3)
starts at the apex ``(*, ..., *)`` and visits masks level by level (by
popcount), ties broken by ascending mask value so the order is deterministic
and identical on every machine.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .schema import Schema

Mask = int
GroupValues = Tuple
CGroup = Tuple[Mask, GroupValues]

#: Marker used when rendering projected-away attributes, as in the paper.
STAR = "*"


def full_mask(num_dimensions: int) -> Mask:
    """Mask of the finest cuboid (all ``d`` dimensions present)."""
    return (1 << num_dimensions) - 1


def mask_size(mask: Mask) -> int:
    """Number of dimensions present in ``mask`` (lattice level)."""
    return bin(mask).count("1")


def mask_dimensions(mask: Mask, num_dimensions: int) -> Tuple[int, ...]:
    """Indices of the dimensions present in ``mask``, ascending."""
    return tuple(i for i in range(num_dimensions) if mask >> i & 1)


@lru_cache(maxsize=None)
def all_cuboids(num_dimensions: int) -> Tuple[Mask, ...]:
    """All ``2^d`` cuboid masks, in ascending mask order."""
    return tuple(range(1 << num_dimensions))


@lru_cache(maxsize=None)
def bfs_order(num_dimensions: int) -> Tuple[Mask, ...]:
    """Masks in bottom-up BFS order: by level (popcount), then mask value.

    This is the traversal order of Algorithm 3's mapper; the apex cuboid
    comes first and the full cuboid last.
    """
    return tuple(
        sorted(all_cuboids(num_dimensions), key=lambda m: (mask_size(m), m))
    )


def descendants(mask: Mask, num_dimensions: int) -> Iterator[Mask]:
    """Direct descendants: masks with exactly one of ``mask``'s bits cleared.

    Per Definition 2.3, a descendant drops one group-by attribute.  The apex
    cuboid (mask 0) has no descendants.
    """
    for i in range(num_dimensions):
        if mask >> i & 1:
            yield mask & ~(1 << i)


@lru_cache(maxsize=None)
def strict_supersets(mask: Mask, num_dimensions: int) -> Tuple[Mask, ...]:
    """All masks strictly containing ``mask`` (transitive ancestors)."""
    return tuple(
        m
        for m in all_cuboids(num_dimensions)
        if m != mask and m & mask == mask
    )


@lru_cache(maxsize=None)
def projector(mask: Mask, num_dimensions: int):
    """A compiled projection function ``row -> GroupValues`` for ``mask``.

    Built on :func:`operator.itemgetter` so the per-row cost is a single C
    call; this is the innermost operation of every cube algorithm.
    """
    dims = mask_dimensions(mask, num_dimensions)
    if not dims:
        empty = ()
        return lambda row: empty
    if len(dims) == 1:
        index = dims[0]
        return lambda row: (row[index],)
    getter = operator.itemgetter(*dims)
    return getter


def project_rows(
    rows: Sequence[Sequence], mask: Mask, num_dimensions: int
) -> Iterator[GroupValues]:
    """Every row's projection onto ``mask``, without a Python-level call
    per row (a one-dimension projection is the 1-tuples ``zip`` makes)."""
    getter = projector(mask, num_dimensions)
    if type(getter) is operator.itemgetter:
        return map(getter, rows)
    if mask == 0:
        return repeat((), len(rows))
    return zip(map(operator.itemgetter(mask.bit_length() - 1), rows))


def project(row: Sequence, mask: Mask, num_dimensions: int) -> GroupValues:
    """Project a row's dimension values onto ``mask``.

    Returns the tuple of values at the set positions, in dimension order —
    the canonical representation of the c-group ``row`` contributes to in
    cuboid ``mask``.  The measure attribute is never part of a projection.
    """
    return projector(mask, num_dimensions)(row)


def tuple_lattice(row: Sequence, num_dimensions: int) -> List[CGroup]:
    """All c-groups the row contributes to, in bottom-up BFS order.

    This materializes the paper's ``lattice(t)`` (Definition 2.4): one
    ``(mask, values)`` node per cuboid.
    """
    return [
        (mask, project(row, mask, num_dimensions))
        for mask in bfs_order(num_dimensions)
    ]


def group_sort_key(mask: Mask, values: GroupValues) -> Tuple:
    """Total order over c-groups: by cuboid level, mask, then values."""
    return (mask_size(mask), mask, values)


def sort_token(value) -> Tuple:
    """The one total order over dimension values, as a sort key.

    Bands: None < numbers (compared numerically, bools included) < str <
    bytes < tuples (recursively tokenized) < everything else (by type
    name, then repr).  It agrees with ``<`` on every pair ``<`` can
    compare, so a plain sort or bisect that does not raise returns what
    this order returns: :func:`ordered` and :func:`bisect_ordered` take
    the token only when ``<`` raises, as on ``None`` next to a string.
    """
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)):  # bool included via int
        return (1, "", value)
    if isinstance(value, str):
        return (2, "", value)
    if isinstance(value, bytes):
        return (3, "", value)
    if isinstance(value, tuple):
        return (4, "", tuple(map(sort_token, value)))
    kind = type(value)
    return (5, f"{kind.__module__}.{kind.__qualname__}", repr(value))


def ordered(items: Iterable, key: Optional[Callable] = None) -> List:
    """``sorted(items, key=key)`` in the :func:`sort_token` order.

    ``items`` must be re-iterable (a list, dict or dict view): the plain
    sort runs first, and only if ``<`` raises are the items sorted again
    by their tokens.
    """
    try:
        return sorted(items, key=key)
    except TypeError:
        if key is None:
            return sorted(items, key=sort_token)
        return sorted(items, key=lambda item: sort_token(key(item)))


def bisect_ordered(elements: Sequence, value) -> int:
    """``bisect_left(elements, value)`` over a list in the
    :func:`sort_token` order."""
    try:
        return bisect_left(elements, value)
    except TypeError:
        return bisect_left(list(map(sort_token, elements)), sort_token(value))


def format_group(mask: Mask, values: GroupValues, schema: Schema) -> str:
    """Render a c-group in the paper's star notation, e.g. ``(laptop, *, 2012)``.

    >>> schema = Schema(["name", "city", "year"], "sales")
    >>> format_group(0b101, ("laptop", 2012), schema)
    '(laptop, *, 2012)'
    """
    parts = []
    value_iter = iter(values)
    for i in range(schema.num_dimensions):
        parts.append(str(next(value_iter)) if mask >> i & 1 else STAR)
    return "(" + ", ".join(parts) + ")"


def format_cuboid(mask: Mask, schema: Schema) -> str:
    """Render a cuboid in star notation, e.g. ``(name, *, year)``."""
    parts = [
        schema.dimensions[i] if mask >> i & 1 else STAR
        for i in range(schema.num_dimensions)
    ]
    return "(" + ", ".join(parts) + ")"


def cube_lattice_edges(num_dimensions: int) -> List[Tuple[Mask, Mask]]:
    """Edges ``(ancestor, descendant)`` of the cube lattice (Figure 1)."""
    edges = []
    for mask in all_cuboids(num_dimensions):
        for child in descendants(mask, num_dimensions):
            edges.append((mask, child))
    return edges
