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

On top sits a **keyed query-result cache**: repeated rollups, slices,
pivots, drilldowns, tops and totals are answered from an LRU of final
results without touching the segment layer.  ``dice`` takes callables
and is never cached.  The same LRU holds both kinds of final result:
the Python value of an in-process call, keyed by the operation and its
arguments, and the encoded reply body of a wire query, keyed by the
server with the canonical spec (:meth:`StoredCubeView.probe` /
:meth:`StoredCubeView.insert`).  Either way one query is one lookup and
one slot: a miss is computed through :attr:`StoredCubeView.uncached`,
so ``top`` and ``pivot`` do not also cache the rollup beneath them.
Hits and misses feed the shared ``serving.cache_hit`` /
``serving.cache_miss`` counters next to the store's segment counters,
so one ``/stats`` read shows both tiers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..aggregates import get_aggregate
from ..cubing.result import matching_rows
from ..query.view import CubeView, QueryError
from ..relation.lattice import all_cuboids, mask_dimensions, mask_size
from .store import CubeStore, ServingCounters, StoreError

#: Default number of finished query results kept hot per view.
DEFAULT_RESULT_CACHE = 128
_MISS = object()  # "not cached", for in-process results that may be None


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
    """A :class:`CubeView` served from disk, with a query-result cache.

    >>> view = StoredCubeView.open("cube.store")     # doctest: +SKIP
    >>> view.rollup("name", "year")                  # doctest: +SKIP

    Every operation inherited from :class:`CubeView` runs unchanged
    against the :class:`_StoredCube` adapter; cacheable operations are
    wrapped in a keyed LRU.  Cached results are copied on the way out
    so a caller mutating its answer cannot poison later ones.
    """

    def __init__(
        self,
        store: CubeStore,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
    ):
        super().__init__(_StoredCube(store))
        #: The same cube behind a plain view: what a cache miss computes.
        self.uncached = CubeView(self.cube)
        self.store = store
        self.counters = store.counters
        self._results: "OrderedDict[object, object]" = OrderedDict()
        self._result_cache_size = max(1, result_cache_size)
        self._lock = threading.RLock()

    @classmethod
    def open(cls, path: str, **kwargs) -> "StoredCubeView":
        """Open a store file and wrap it; kwargs pass through to both
        :meth:`CubeStore.open` (``segment_cache_size``, ``counters``)
        and this view (``result_cache_size``)."""
        result_cache_size = kwargs.pop(
            "result_cache_size", DEFAULT_RESULT_CACHE
        )
        store = CubeStore.open(path, **kwargs)
        return cls(store, result_cache_size=result_cache_size)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "StoredCubeView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- result cache --------------------------------------------------------

    def probe(self, key, default=None):
        """The result cached under ``key`` (not a copy), else ``default``;
        counts the hit or miss."""
        with self._lock:
            result = self._results.get(key, _MISS)
            if result is _MISS:
                self.counters.bump("serving.cache_miss")
                return default
            self.counters.bump("serving.cache_hit")
            self._results.move_to_end(key)
            return result

    def insert(self, key, result) -> None:
        """Cache ``result`` under ``key``, evicting the least recent."""
        with self._lock:
            self._results[key] = result
            if len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)

    def cache_stats(self) -> Dict[str, int]:
        """Entries held, and the bytes of the encoded replies among them."""
        with self._lock:
            return {
                "entries": len(self._results),
                "payload_bytes": sum(
                    len(result)
                    for result in self._results.values()
                    if isinstance(result, bytes)
                ),
            }

    def _cached(self, key: Tuple, compute):
        """Probe and insert under the lock, ``compute`` outside it: a hit
        never queues behind another thread's segment read.  Two racing
        misses both compute — equal answers, the later insert wins."""
        try:
            hash(key)
        except TypeError:  # an unhashable fixed value: CubeView names it
            return compute()
        result = self.probe(key, _MISS)
        if result is _MISS:
            result = compute()
            self.insert(key, result)
        return self._copy(result)

    @staticmethod
    def _copy(result):
        if isinstance(result, dict):
            return dict(result)
        if isinstance(result, list):
            return list(result)
        return result

    # -- cached operations ---------------------------------------------------

    def rollup(self, *dimensions: str) -> Dict[Tuple, object]:
        return self._cached(
            ("rollup", tuple(dimensions)),
            lambda: self.uncached.rollup(*dimensions),
        )

    def total(self):
        return self._cached(("total",), self.uncached.total)

    def slice(self, **fixed) -> Dict[Tuple, object]:
        return self._cached(
            ("slice", tuple(sorted(fixed.items()))),
            lambda: self.uncached.slice(**fixed),
        )

    def drilldown(
        self, group: Dict[str, object], into: str
    ) -> Dict[object, object]:
        return self._cached(
            # key=repr: group names of any type order (CubeView rejects them).
            ("drilldown", tuple(sorted(group.items(), key=repr)), into),
            lambda: self.uncached.drilldown(group, into),
        )

    def top(
        self,
        dimensions,
        k: int = 10,
        key: Optional[object] = None,
    ) -> List[Tuple[Tuple, object]]:
        if key is not None:
            # Custom magnitude extractors are not hashable cache keys.
            return super().top(dimensions, k, key)
        return self._cached(
            ("top", tuple(dimensions), k),
            lambda: self.uncached.top(dimensions, k),
        )

    def pivot(
        self, row_dim: str, column_dim: str
    ) -> Dict[object, Dict[object, object]]:
        result = self._cached(
            ("pivot", row_dim, column_dim),
            lambda: self.uncached.pivot(row_dim, column_dim),
        )
        # Deep-ish copy: the outer dict is already fresh, the inner row
        # dicts still alias the cached ones.
        return {row: dict(columns) for row, columns in result.items()}

    # dice() is inherited uncached: its predicates are callables.

    def stats(self) -> Dict[str, int]:
        """A snapshot of the shared ``serving.*`` counters."""
        return self.counters.to_dict()
