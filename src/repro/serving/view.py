"""Query planning over a :class:`~repro.serving.store.CubeStore`.

:class:`StoredCubeView` gives a store the exact :class:`CubeView` API —
rollup/slice/dice/drilldown/top/pivot — by inheriting all query logic
from :class:`CubeView` and swapping the backing ``CubeResult`` for a
:class:`_StoredCube` adapter.  Answers are therefore bit-identical to
the in-memory view by construction: the only thing that changes is
where a cuboid's groups come from.

The adapter adds the **ancestor-cuboid planning rule**.  When the exact
cuboid for a query was not materialized (e.g. the store holds only a
subset of the lattice), the adapter finds every materialized cuboid
whose mask is a superset of the requested one — a *covering ancestor*,
holding strictly finer groups — and rebuilds the requested cuboid from
the **smallest** such ancestor (fewest groups per the footer, ties to
the lower mask) by projecting each ancestor group onto the requested
mask and merging collisions with the stored aggregate's ``merge``.
This is exact precisely for **distributive** aggregates (count, sum,
min, max), whose finalized values are their own mergeable state;
algebraic and holistic aggregates raise :class:`QueryError` rather than
serve a silently wrong number.  Re-aggregating from an iceberg-pruned
ancestor would undercount, so iceberg cubes are stored with every
cuboid materialized (empty segments cost a footer entry, not wrong
answers) and only deliberately partial stores take this path.

The view keeps no answers.  A repeated wire query is answered from the
reply LRU of :class:`~repro.serving.server.CubeServer`, and a repeated
in-process query recomputes over the store's segment cache, which keeps
it off the disk.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from ..aggregates import get_aggregate
from ..cubing.result import matching_rows
from ..query.view import CubeView, QueryError
from ..relation.lattice import all_cuboids, mask_dimensions, mask_size
from .store import CubeStore


class _StoredCube:
    """Duck-typed ``CubeResult`` face over a :class:`CubeStore`.

    Implements exactly the surface :class:`CubeView` touches —
    ``schema``, ``cuboid``, ``rows_matching``, ``value``, ``num_groups``,
    ``groups_per_cuboid`` — backed by lazy segment reads, selection in
    code space, and the ancestor re-aggregation planner.
    """

    def __init__(self, store: CubeStore):
        self.store = store
        self.schema = store.schema
        self.counters = store.counters
        self._lock = threading.Lock()  # guards the one counter bumped here

    @property
    def num_groups(self) -> int:
        return self.store.total_groups

    def groups_per_cuboid(self) -> Dict[int, int]:
        # Footer counts for materialized cuboids; a partial store's
        # missing cuboids are rebuilt so the lattice stays complete,
        # matching ``CubeResult.groups_per_cuboid``.
        counts = self.store.groups_per_cuboid()
        for mask in all_cuboids(self.schema.num_dimensions):
            if mask not in counts:
                counts[mask] = len(self.cuboid(mask))
        return counts

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        if self.store.has_cuboid(mask):
            return self.store.cuboid(mask)
        return self._reaggregate(mask)

    def rows_matching(self, mask: int, fixed) -> List[Tuple[Tuple, object]]:
        if self.store.has_cuboid(mask):
            return self.store.rows_matching(mask, fixed)
        return matching_rows(self._reaggregate(mask), fixed)

    def value(self, mask: int, values: Tuple):
        """A point lookup; ``KeyError`` when absent, as a dict would."""
        if len(values) == mask_size(mask):
            for _, value in self.rows_matching(mask, enumerate(values)):
                return value
        raise KeyError((mask, values))

    def _covering_ancestor(self, mask: int) -> int:
        """The smallest materialized cuboid covering ``mask``.

        Smallest by footer group count (no segment IO), ties broken
        toward the lower mask so the plan is deterministic.
        """
        candidates = [
            m for m in self.store.masks if m & mask == mask and m != mask
        ]
        if not candidates:
            raise QueryError(
                f"no materialized cuboid covers mask 0x{mask:x} in "
                f"{self.store.path}"
            )
        return min(
            candidates, key=lambda m: (self.store.group_count(m), m)
        )

    def _reaggregate(self, mask: int) -> Dict[Tuple, object]:
        kind = self.store.aggregate_kind
        if kind != "distributive":
            raise QueryError(
                f"cuboid 0x{mask:x} is not materialized and the stored "
                f"aggregate ({self.store.aggregate_name or 'unknown'}, "
                f"{kind or 'unknown kind'}) cannot be re-aggregated from "
                "an ancestor; only distributive aggregates can"
            )
        fn = get_aggregate(self.store.aggregate_name)
        ancestor = self._covering_ancestor(mask)
        with self._lock:
            self.counters.bump("serving.reaggregations")
        ancestor_dims = mask_dimensions(ancestor, self.schema.num_dimensions)
        wanted = mask_dimensions(mask, self.schema.num_dimensions)
        positions = [ancestor_dims.index(i) for i in wanted]
        merged: Dict[Tuple, object] = {}
        for values, value in self.store.cuboid(ancestor).items():
            projected = tuple(values[p] for p in positions)
            if projected in merged:
                merged[projected] = fn.merge(merged[projected], value)
            else:
                merged[projected] = value
        return merged


class StoredCubeView(CubeView):
    """A :class:`CubeView` served from disk.

    >>> view = StoredCubeView.open("cube.store")     # doctest: +SKIP
    >>> view.rollup("name", "year")                  # doctest: +SKIP

    Every operation inherited from :class:`CubeView` runs unchanged
    against the :class:`_StoredCube` adapter.
    """

    def __init__(self, store: CubeStore):
        super().__init__(_StoredCube(store))
        self.store = store
        self.counters = store.counters

    @classmethod
    def open(cls, path: str, **kwargs) -> "StoredCubeView":
        """Open a store file and wrap it; kwargs pass through to
        :meth:`CubeStore.open` (``segment_cache_size``, ``counters``)."""
        return cls(CubeStore.open(path, **kwargs))

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "StoredCubeView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """A snapshot of the shared ``serving.*`` counters."""
        return self.counters.to_dict()
