"""The materialized cube: every c-group of every cuboid with its aggregate.

All algorithms in this repository — sequential oracles and distributed
engines alike — return a :class:`CubeResult`, so correctness is always a
straight equality check between two of them.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..relation.lattice import (
    CGroup,
    all_cuboids,
    format_group,
    group_sort_key,
    mask_size,
)
from ..relation.schema import Schema


def matching_rows(
    groups: Dict[Tuple, object], fixed: Iterable[Tuple[int, object]]
) -> List[Tuple[Tuple, object]]:
    """The items of ``groups`` whose key equals, at every ``(position,
    value)`` of ``fixed``, the given value; in dict order."""
    fixed = list(fixed)
    return [
        item
        for item in groups.items()
        if all(item[0][at] == value for at, value in fixed)
    ]


class CubeResult:
    """Mapping from c-group ``(mask, values)`` to its aggregate value,
    held one ``{values: value}`` dict per cuboid.

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
        #: ``{mask: {values: value}}``; a cuboid may be present and empty,
        #: and readers must not race a writer.
        self._cuboids: Dict[int, Dict[Tuple, object]] = {}
        for (mask, values), value in (groups or {}).items():
            self._cuboids.setdefault(mask, {})[values] = value

    # -- construction --------------------------------------------------------

    def add(self, mask: int, values: Tuple, aggregate_value) -> None:
        """Record the aggregate of one c-group.

        Raises if the group was already recorded with a *different* value —
        a distributed algorithm emitting a group twice is always a bug.
        """
        # setdefault probes the cuboid once; the fast "new group" path does
        # no second lookup, and re-insertion with an equal value (legal,
        # e.g. merged partial outputs) is also a single probe.
        cuboid = self._cuboids.setdefault(mask, {})
        existing = cuboid.setdefault(values, aggregate_value)
        if existing is not aggregate_value and existing != aggregate_value:
            raise ValueError(
                f"conflicting values for c-group {(mask, values)}: "
                f"{existing!r} vs {aggregate_value!r}"
            )

    def add_block(self, mask: int, groups: List[Tuple], values: List) -> None:
        """Bulk-insert one cuboid's ``groups`` with their ``values`` —
        parallel columns, the shape SP-Cube's reduce output has.

        The fast path is one C-speed ``dict.update``, valid because a
        correct engine emits every c-group exactly once.  A group the
        cuboid already holds, or one repeated inside the block, sends
        the whole block through :meth:`add` instead, reproducing its
        first-wins/raise semantics exactly.
        """
        cuboid = self._cuboids.setdefault(mask, {})
        held = len(cuboid)
        if not held or cuboid.keys().isdisjoint(groups):
            cuboid.update(zip(groups, values))
            if len(cuboid) == held + len(groups):
                return
            for group in groups:  # all new: take them back out, replay
                cuboid.pop(group, None)
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
            return self._cuboids[mask][values]
        except KeyError:
            raise KeyError((mask, values)) from None

    def get(self, mask: int, values: Tuple, default=None):
        return (self._cuboids.get(mask) or {}).get(values, default)

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        """All groups of one cuboid: ``{values: aggregate_value}``, a
        fresh dict per call."""
        return dict(self._cuboids.get(mask) or {})

    def rows_matching(self, mask: int, fixed) -> List[Tuple[Tuple, object]]:
        """:func:`matching_rows` of one cuboid, in cuboid order — the
        selection seam :class:`CubeView` queries through."""
        return matching_rows(self._cuboids.get(mask) or {}, fixed)

    def items(self) -> Iterator[Tuple[CGroup, object]]:
        """``((mask, values), value)`` of every c-group, cuboid by cuboid."""
        for mask, cuboid in self._cuboids.items():
            yield from zip(zip(repeat(mask), cuboid), cuboid.values())

    @property
    def num_groups(self) -> int:
        """Total c-groups across all cuboids (the paper quotes these counts
        per dataset, e.g. ~180M for Wikipedia)."""
        return sum(map(len, self._cuboids.values()))

    def groups_per_cuboid(self) -> Dict[int, int]:
        """``{mask: group count}`` — the cube's shape."""
        counts: Dict[int, int] = {
            mask: 0 for mask in all_cuboids(self.schema.num_dimensions)
        }
        counts.update(zip(self._cuboids, map(len, self._cuboids.values())))
        return counts

    def to_rows(self) -> List[Tuple[int, Tuple, object]]:
        """Deterministically ordered ``(mask, values, value)`` rows."""
        return sorted(
            ((mask, values, agg) for (mask, values), agg in self.items()),
            key=lambda row: group_sort_key(row[0], row[1]),
        )

    # -- comparison -----------------------------------------------------------

    def _materialized(self) -> Dict[int, Dict[Tuple, object]]:
        """The cuboids that hold a group: what equality compares."""
        return {m: cuboid for m, cuboid in self._cuboids.items() if cuboid}

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
        return values in (self._cuboids.get(mask) or ())

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
        levels = max(map(mask_size, self._materialized()), default=0)
        return (
            f"CubeResult({self.num_groups} groups, "
            f"{levels}-level lattice)"
        )
