"""The materialized cube: every c-group of every cuboid with its aggregate.

All algorithms in this repository — sequential oracles and distributed
engines alike — return a :class:`CubeResult`, so correctness is always a
straight equality check between two of them.
"""

from __future__ import annotations

import sys
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..relation.lattice import (
    CGroup,
    all_cuboids,
    format_group,
    group_sort_key,
    mask_size,
    ordered,
)
from ..relation.schema import Schema


class CubeResult:
    """Mapping from c-group ``(mask, values)`` to its aggregate value.

    A cuboid is held either as the ``(groups, values)`` lists of the one
    block it was added as (:meth:`add_block`), or as a ``{values: value}``
    dict — built from those lists on the first read that needs one.

    Parameters
    ----------
    schema:
        The input relation's schema (used for rendering and cuboid math).
    groups:
        Optional initial ``{(mask, values): aggregate_value}`` mapping.
    """

    def __init__(
        self,
        schema: Schema,
        groups: Optional[Dict[CGroup, object]] = None,
    ):
        self.schema = schema
        #: ``{mask: {values: value} or (groups, values)}``, maybe empty;
        #: reads may race each other (a conversion is idempotent), not writes.
        self._cuboids: Dict[int, Union[Dict[Tuple, object], Tuple]] = {}
        for (mask, values), value in (groups or {}).items():
            self._cuboids.setdefault(mask, {})[values] = value

    def _dict(self, mask: int) -> Dict[Tuple, object]:
        """Cuboid ``mask`` as its dict (a fresh empty one when absent); a
        cuboid held as block lists is converted, and stays converted."""
        cuboid = self._cuboids.get(mask, {})
        if type(cuboid) is tuple:
            cuboid = self._cuboids[mask] = dict(zip(*cuboid))
        return cuboid

    def _len(self, mask: int) -> int:
        cuboid = self._cuboids.get(mask, {})
        return len(cuboid[0] if type(cuboid) is tuple else cuboid)

    # -- construction --------------------------------------------------------

    def add(self, mask: int, values: Tuple, aggregate_value) -> None:
        """Record the aggregate of one c-group.

        Raises if the group was already recorded with a *different* value —
        a distributed algorithm emitting a group twice is always a bug.
        """
        # setdefault probes the cuboid once; the fast "new group" path does
        # no second lookup, and re-insertion with an equal value (legal,
        # e.g. merged partial outputs) is also a single probe.
        try:
            existing = self._cuboids.setdefault(mask, {}).setdefault(
                values, aggregate_value
            )
        except AttributeError:  # held as block lists: a dict from now on
            existing = self._dict(mask).setdefault(values, aggregate_value)
        if existing is not aggregate_value and existing != aggregate_value:
            raise ValueError(
                f"conflicting values for c-group {(mask, values)}: "
                f"{existing!r} vs {aggregate_value!r}"
            )

    def add_block(self, mask: int, groups: List[Tuple], values: List) -> None:
        """Bulk-insert one cuboid's ``groups`` with their ``values`` —
        parallel columns, the shape SP-Cube's reduce output has.

        Into an empty cuboid, a block that repeats no group (one
        transient ``set`` checks) is kept as it is: the cube holds the
        block's own lists, which the caller must not change afterwards.
        Any other block goes through :meth:`add` group by group, with
        its first-wins/raise semantics.
        """
        held = self._len(mask)
        if not held and len(values) == len(groups) == len(set(groups)):
            self._cuboids[mask] = (groups, values)
            return
        for group, value in zip(groups, values):
            self.add(mask, group, value)

    def add_pairs(self, pairs: List[Tuple[CGroup, object]]) -> None:
        """Insert ``((mask, values), value)`` pairs, as :meth:`add` would."""
        for (mask, values), value in pairs:
            self.add(mask, values, value)

    # -- access ---------------------------------------------------------------

    def value(self, mask: int, values: Tuple):
        """Aggregate value of one c-group; KeyError when absent."""
        try:
            return self._dict(mask)[values]
        except KeyError:
            raise KeyError((mask, values)) from None

    def get(self, mask: int, values: Tuple, default=None):
        return self._dict(mask).get(values, default)

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        """All groups of one cuboid: ``{values: aggregate_value}``, a
        fresh dict per call."""
        return dict(self._dict(mask))

    def columns(self, mask: int) -> Tuple[List[Tuple], List]:
        """One cuboid as parallel ``(groups, values)`` lists, building no
        dict: a block's own lists when the cuboid is held as one, which
        the caller must not change."""
        cuboid = self._cuboids.get(mask, {})
        if type(cuboid) is tuple:
            return cuboid
        return list(cuboid), list(cuboid.values())

    def rows_matching(
        self, mask: int, fixed: Iterable[Tuple[int, object]]
    ) -> List[Tuple[Tuple, object]]:
        """The ``(values, aggregate)`` items of one cuboid whose values
        equal (``==``), at every ``(position, value)`` of ``fixed``, the
        given value; in cuboid order — the selection seam
        :class:`CubeView` queries through.  Each position filters the
        cuboid's :meth:`columns` in C (``map``/``compress``), building
        no dict."""
        groups, values = self.columns(mask)
        for at, value in fixed:
            keep = list(map(eq, map(itemgetter(at), groups), repeat(value)))
            groups = list(compress(groups, keep))
            values = list(compress(values, keep))
        return list(zip(groups, values))

    def items(self) -> Iterator[Tuple[CGroup, object]]:
        """``((mask, values), value)`` of every c-group, cuboid by cuboid."""
        for mask in self._cuboids:
            groups, values = self.columns(mask)
            yield from zip(zip(repeat(mask), groups), values)

    @property
    def num_groups(self) -> int:
        """Total c-groups across all cuboids (the paper quotes these counts
        per dataset, e.g. ~180M for Wikipedia)."""
        return sum(map(self._len, self._cuboids))

    def groups_per_cuboid(self) -> Dict[int, int]:
        """``{mask: group count}`` — the cube's shape."""
        counts: Dict[int, int] = {
            mask: 0 for mask in all_cuboids(self.schema.num_dimensions)
        }
        counts.update(zip(self._cuboids, map(self._len, self._cuboids)))
        return counts

    def to_rows(self) -> List[Tuple[int, Tuple, object]]:
        """Deterministically ordered ``(mask, values, value)`` rows."""
        return ordered(
            [(mask, values, agg) for (mask, values), agg in self.items()],
            key=lambda row: group_sort_key(row[0], row[1]),
        )

    # -- comparison -----------------------------------------------------------

    def _materialized(self) -> Dict[int, Dict[Tuple, object]]:
        """The cuboids that hold a group: what equality compares."""
        return {m: self._dict(m) for m in list(filter(self._len, self._cuboids))}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeResult):
            return NotImplemented
        return self._materialized() == other._materialized()

    # Mutable, with a value-based __eq__: unhashable the canonical way,
    # so hash() raises TypeError at the call site instead of from a
    # hand-rolled method body.
    __hash__ = None

    def __len__(self) -> int:
        return self.num_groups

    def __contains__(self, key: CGroup) -> bool:
        mask, values = key
        return values in self._dict(mask)

    def diff(self, other: "CubeResult", limit: int = 10) -> List[str]:
        """Human-readable discrepancies against ``other`` (for test output)."""
        problems: List[str] = []
        for key, agg in self.items():
            if key not in other:
                problems.append(f"missing in other: {self._render(key)} = {agg!r}")
            elif other.value(*key) != agg:
                problems.append(
                    f"mismatch at {self._render(key)}: "
                    f"{agg!r} vs {other.value(*key)!r}"
                )
            if len(problems) >= limit:
                return problems
        for key, agg in other.items():
            if key not in self:
                problems.append(
                    f"extra in other: {self._render(key)} = {agg!r}"
                )
                if len(problems) >= limit:
                    break
        return problems

    def _render(self, key: CGroup) -> str:
        mask, values = key
        return format_group(mask, values, self.schema)

    def __repr__(self) -> str:
        levels = max(map(mask_size, filter(self._len, self._cuboids)), default=0)
        return (
            f"CubeResult({self.num_groups} groups, "
            f"{levels}-level lattice)"
        )


def estimate_cube_bytes(cube: CubeResult) -> int:
    """Approximate resident bytes of what a cube holds, building no dict:
    ``sys.getsizeof`` of each cuboid's dict or block lists, each values
    tuple and its elements, and each aggregate value.  Shared objects
    count once per reference — an upper-ish estimate, good enough for
    the doctor's store-vs-memory ratio, not an allocator audit."""
    total = 0
    for cuboid in cube._cuboids.values():
        if type(cuboid) is tuple:  # the block's two lists
            held = groups, values = cuboid
        else:
            held, groups, values = (cuboid,), cuboid, cuboid.values()
        every = chain(held, groups, chain.from_iterable(groups), values)
        total += sum(map(sys.getsizeof, every))
    return total
