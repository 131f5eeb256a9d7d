"""The OLAP API over a :class:`~repro.serving.store.CubeStore`.

:class:`StoredCubeView` gives a store the exact :class:`CubeView` API —
rollup/slice/dice/drilldown/top/pivot — by inheriting all query logic
from :class:`CubeView` over the store itself, which offers the same
read surface as a ``CubeResult`` (``cuboid``, ``rows_matching``,
``value``, ``num_groups``, ``groups_per_cuboid``).  Answers are
therefore bit-identical to the in-memory view by construction: the only
thing that changes is where a cuboid's groups come from.

The view keeps no answers.  A repeated wire query is answered from the
reply LRU of :class:`~repro.serving.server.CubeServer`, and a repeated
in-process query recomputes over the store's segment cache, which keeps
it off the disk.
"""

from __future__ import annotations

from typing import Dict

from ..query.view import CubeView
from .store import CubeStore


class StoredCubeView(CubeView):
    """A :class:`CubeView` served from disk.

    >>> view = StoredCubeView.open("cube.store")     # doctest: +SKIP
    >>> view.rollup("name", "year")                  # doctest: +SKIP
    """

    def __init__(self, store: CubeStore):
        super().__init__(store)
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
