"""The materialized cube: every c-group of every cuboid with its aggregate.

All algorithms in this repository — sequential oracles and distributed
engines alike — return a :class:`CubeResult`, so correctness is always a
straight equality check between two of them.
"""

from __future__ import annotations

from collections import defaultdict
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
    """Mapping from c-group ``(mask, values)`` to its aggregate value.

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
        self._groups: Dict[CGroup, object] = dict(groups or {})
        #: ``{mask: {values: value}}``: built by the first :meth:`cuboid`,
        #: dropped after every insertion; readers must not race a writer.
        self._by_mask: Optional[Dict[int, Dict[Tuple, object]]] = None

    # -- construction --------------------------------------------------------

    def add(self, mask: int, values: Tuple, aggregate_value) -> None:
        """Record the aggregate of one c-group.

        Raises if the group was already recorded with a *different* value —
        a distributed algorithm emitting a group twice is always a bug.
        """
        key = (mask, values)
        # setdefault probes the dict once; the fast "new group" path does
        # no second lookup, and re-insertion with an equal value (legal,
        # e.g. merged partial outputs) is also a single probe.
        existing = self._groups.setdefault(key, aggregate_value)
        self._by_mask = None
        if existing is not aggregate_value and existing != aggregate_value:
            raise ValueError(
                f"conflicting values for c-group {key}: "
                f"{existing!r} vs {aggregate_value!r}"
            )

    def add_pairs(self, pairs: List[Tuple[CGroup, object]]) -> None:
        """Bulk-insert ``((mask, values), value)`` pairs — the shape engine
        reduce output already has.

        The fast path is a single C-speed ``dict.update``, valid because a
        correct engine emits every c-group exactly once per job.  Key
        repetition is detected by the length delta and re-validated
        through :meth:`add`, reproducing its first-wins/raise semantics
        exactly — the fast path is only taken on an empty result, so the
        rebuild loses no prior state.
        """
        groups = self._groups
        if groups:
            for (mask, values), value in pairs:
                self.add(mask, values, value)
            return
        groups.update(pairs)
        self._by_mask = None
        if len(groups) != len(pairs):
            self._groups = {}
            for (mask, values), value in pairs:
                self.add(mask, values, value)

    # -- access ---------------------------------------------------------------

    def value(self, mask: int, values: Tuple):
        """Aggregate value of one c-group; KeyError when absent."""
        return self._groups[(mask, values)]

    def get(self, mask: int, values: Tuple, default=None):
        return self._groups.get((mask, values), default)

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        """All groups of one cuboid: ``{values: aggregate_value}``.

        A fresh dict per call, copied from a per-mask index built on
        first use: one pass over the cube, not one per call.
        """
        by_mask = self._by_mask
        if by_mask is None:
            by_mask = defaultdict(dict)
            for (m, values), agg in self._groups.items():
                by_mask[m][values] = agg
            # Published whole: a second reader never sees it half-built.
            self._by_mask = by_mask
        return dict(by_mask.get(mask, ()))

    def rows_matching(self, mask: int, fixed) -> List[Tuple[Tuple, object]]:
        """:func:`matching_rows` of one cuboid, in cuboid order — the
        selection seam :class:`CubeView` queries through."""
        return matching_rows(self.cuboid(mask), fixed)

    def items(self) -> Iterator[Tuple[CGroup, object]]:
        return iter(self._groups.items())

    @property
    def num_groups(self) -> int:
        """Total c-groups across all cuboids (the paper quotes these counts
        per dataset, e.g. ~180M for Wikipedia)."""
        return len(self._groups)

    def groups_per_cuboid(self) -> Dict[int, int]:
        """``{mask: group count}`` — the cube's shape."""
        counts: Dict[int, int] = {
            mask: 0 for mask in all_cuboids(self.schema.num_dimensions)
        }
        for mask, _values in self._groups:
            counts[mask] += 1
        return counts

    def to_rows(self) -> List[Tuple[int, Tuple, object]]:
        """Deterministically ordered ``(mask, values, value)`` rows."""
        return sorted(
            ((mask, values, agg) for (mask, values), agg in self._groups.items()),
            key=lambda row: group_sort_key(row[0], row[1]),
        )

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeResult):
            return NotImplemented
        return self._groups == other._groups

    # Mutable, with a value-based __eq__: unhashable the canonical way,
    # so hash() raises TypeError at the call site instead of from a
    # hand-rolled method body.
    __hash__ = None

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, key: CGroup) -> bool:
        return key in self._groups

    def diff(self, other: "CubeResult", limit: int = 10) -> List[str]:
        """Human-readable discrepancies against ``other`` (for test output)."""
        problems: List[str] = []
        for key, agg in self._groups.items():
            if key not in other._groups:
                problems.append(f"missing in other: {self._render(key)} = {agg!r}")
            elif other._groups[key] != agg:
                problems.append(
                    f"mismatch at {self._render(key)}: "
                    f"{agg!r} vs {other._groups[key]!r}"
                )
            if len(problems) >= limit:
                return problems
        for key in other._groups:
            if key not in self._groups:
                problems.append(
                    f"extra in other: {self._render(key)} = "
                    f"{other._groups[key]!r}"
                )
                if len(problems) >= limit:
                    break
        return problems

    def _render(self, key: CGroup) -> str:
        mask, values = key
        return format_group(mask, values, self.schema)

    def __repr__(self) -> str:
        levels = max(
            (mask_size(mask) for mask, _ in self._groups), default=0
        )
        return (
            f"CubeResult({len(self._groups)} groups, "
            f"{levels}-level lattice)"
        )
