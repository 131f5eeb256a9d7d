"""OLAP query operations over a materialized cube.

The cube exists to be queried: once an engine has produced a
:class:`~repro.cubing.result.CubeResult`, a :class:`CubeView` answers the
classic OLAP operations over it **without touching the base relation** —
every roll-up, slice, dice and drill-down is a lookup into the right
cuboid:

* :meth:`rollup` — aggregate over a chosen subset of dimensions;
* :meth:`slice` — fix some dimensions to values, aggregate the rest away;
* :meth:`dice` — like slice but with per-dimension predicates;
* :meth:`drilldown` — refine a group by one more dimension;
* :meth:`top` — the k largest groups of a cuboid;
* :meth:`pivot` — a two-dimensional cross-tab.

All name-based: callers use schema dimension names, never masks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cubing.result import CubeResult
from ..relation.lattice import mask_dimensions, ordered, project_rows
from ..relation.schema import SchemaError


class QueryError(ValueError):
    """Raised for queries the materialized cube cannot answer."""


class CubeView:
    """Name-based OLAP operations over a :class:`CubeResult`."""

    def __init__(self, cube: CubeResult):
        self.cube = cube
        self.schema = cube.schema

    # -- helpers -------------------------------------------------------------

    def _dimension_index(self, name: str) -> int:
        """Schema lookup with unknown names surfaced as QueryErrors —
        every operation funnels through here so callers never see a
        raw :class:`SchemaError` (or worse, a ``KeyError``)."""
        try:
            return self.schema.dimension_index(name)
        except SchemaError as exc:
            raise QueryError(str(exc)) from None

    def _mask_for(self, dimensions: Sequence[str]) -> int:
        mask = 0
        for name in dimensions:
            index = self._dimension_index(name)
            bit = 1 << index
            if mask & bit:
                raise QueryError(f"dimension {name!r} listed twice")
            mask |= bit
        return mask

    def _named_groups(self, mask: int) -> Dict[Tuple, object]:
        groups = self.cube.cuboid(mask)
        if not groups:
            self._check_apex(mask)
        return groups

    def _check_apex(self, mask: int) -> None:
        """Distinguish "empty cuboid" from "never materialized": a full
        cube always has the apex, so an empty non-apex cuboid of a
        non-empty cube without one means partial materialization.  Reads
        group counts only, never a cuboid's groups."""
        counts = self.cube.groups_per_cuboid()
        if mask and not counts[0] and not counts[mask] and self.cube.num_groups:
            raise QueryError("cube has no apex; is it materialized?")

    def _rows_matching(
        self, mask: int, fixed: Dict[str, object]
    ) -> List[Tuple[Tuple, object]]:
        """The ``(values, aggregate)`` rows of cuboid ``mask`` whose named
        dimensions equal the ``fixed`` values.  Selection is the cube's
        (``rows_matching``: a C-level column filter in memory, code space
        on a store); all answer shaping stays in the operations."""
        ordered = mask_dimensions(mask, self.schema.num_dimensions)
        positions = []
        for name, value in fixed.items():
            try:
                hash(value)
            except TypeError:
                raise QueryError(
                    f"dimension {name!r} cannot be fixed to an unhashable "
                    f"{type(value).__name__}"
                ) from None
            positions.append((ordered.index(self._dimension_index(name)), value))
        rows = self.cube.rows_matching(mask, positions)
        if not rows:
            self._check_apex(mask)  # same check as a full read
        return rows

    # -- operations ------------------------------------------------------------

    def rollup(self, *dimensions: str) -> Dict[Tuple, object]:
        """The cuboid grouped by exactly ``dimensions``.

        ``rollup()`` with no arguments returns the grand total (apex).

        >>> view.rollup("name", "year")      # doctest: +SKIP
        {("laptop", 2012): 2, ...}
        """
        mask = self._mask_for(dimensions)
        ordered = mask_dimensions(mask, self.schema.num_dimensions)
        requested = [self.schema.dimension_index(d) for d in dimensions]
        groups = self._named_groups(mask)  # the cube hands out a fresh dict
        if list(ordered) == requested:
            return groups
        # Caller listed dimensions out of schema order: permute values.
        positions = [ordered.index(i) for i in requested]
        return {
            tuple(values[p] for p in positions): agg
            for values, agg in groups.items()
        }

    def total(self):
        """The grand total — the apex cuboid's single value."""
        try:
            return self.cube.value(0, ())
        except KeyError:
            raise QueryError("cube has no apex group") from None

    def slice(self, /, **fixed) -> Dict[Tuple, object]:
        """Fix dimensions to values; remaining dimensions stay grouped.

        Returns ``{remaining-dimension values: aggregate}`` over the finest
        cuboid that keeps every dimension (fixed ones are filtered, free
        ones grouped).

        >>> view.slice(city="Rome")          # doctest: +SKIP
        {("laptop", 2012): 2, ...}
        """
        d = self.schema.num_dimensions
        full = (1 << d) - 1
        rows = self._rows_matching(full, fixed)
        free = full ^ self._mask_for(fixed)  # the dimensions left grouped
        keys = project_rows(list(map(itemgetter(0), rows)), free, d)
        return dict(zip(keys, map(itemgetter(1), rows)))

    def dice(
        self, /, **predicates: Callable[[object], bool]
    ) -> Dict[Tuple, object]:
        """Filter the finest cuboid by per-dimension predicates.

        >>> view.dice(year=lambda y: y >= 2012)    # doctest: +SKIP
        """
        full = (1 << self.schema.num_dimensions) - 1
        index_predicates = {
            self._dimension_index(name): predicate
            for name, predicate in predicates.items()
        }
        return {
            values: agg
            for values, agg in self._named_groups(full).items()
            if all(
                predicate(values[i])
                for i, predicate in index_predicates.items()
            )
        }

    def drilldown(
        self,
        group: Dict[str, object],
        into: str,
    ) -> Dict[object, object]:
        """Refine one c-group by one more dimension.

        ``group`` fixes the current dimensions (name -> value); ``into``
        names the dimension to expand.  Returns ``{new value: aggregate}``.

        >>> view.drilldown({"name": "laptop"}, into="city")  # doctest: +SKIP
        {"Rome": 2, "Paris": 1}
        """
        if into in group:
            raise QueryError(f"cannot drill into fixed dimension {into!r}")
        mask = self._mask_for(list(group) + [into])
        # Where the expanded dimension sits in this cuboid's value tuples.
        into_at = mask_dimensions(mask, self.schema.num_dimensions).index(
            self._dimension_index(into)
        )
        rows = self._rows_matching(mask, group)
        keys = map(itemgetter(into_at), map(itemgetter(0), rows))
        return dict(zip(keys, map(itemgetter(1), rows)))

    def top(
        self,
        dimensions: Sequence[str],
        k: int = 10,
        key: Optional[Callable[[object], object]] = None,
    ) -> List[Tuple[Tuple, object]]:
        """The ``k`` groups of a cuboid with the largest aggregates.

        ``key`` extracts a sortable magnitude from the aggregate value
        (identity by default — fine for count/sum).  Ties break on the
        group values, ascending, so the ranking does not depend on the
        iteration order of the backing cuboid.
        """
        if k <= 0:
            raise QueryError("k must be positive")
        key = key or (lambda value: value)
        groups = self.rollup(*dimensions)
        if k > len(groups):
            raise QueryError(
                f"top({k}) asked of a cuboid with only "
                f"{len(groups)} group(s)"
            )
        ranked = ordered(groups.items())
        ranked.sort(key=lambda item: key(item[1]), reverse=True)
        return ranked[:k]

    def pivot(
        self, row_dim: str, column_dim: str
    ) -> Dict[object, Dict[object, object]]:
        """A cross-tab: ``{row value: {column value: aggregate}}``.

        >>> view.pivot("name", "year")       # doctest: +SKIP
        {"laptop": {2012: 2, 2015: 1}, ...}
        """
        table: Dict[object, Dict[object, object]] = {}
        for (row, column), agg in self.rollup(row_dim, column_dim).items():
            table.setdefault(row, {})[column] = agg
        return table

    def cuboid_sizes(self) -> Dict[Tuple[str, ...], int]:
        """Group counts per cuboid, keyed by dimension-name tuples."""
        sizes: Dict[Tuple[str, ...], int] = {}
        for mask, count in self.cube.groups_per_cuboid().items():
            names = tuple(
                self.schema.dimensions[i]
                for i in mask_dimensions(mask, self.schema.num_dimensions)
            )
            sizes[names] = count
        return sizes
