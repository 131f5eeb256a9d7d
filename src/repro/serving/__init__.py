"""The cube serving layer: the read side of the pipeline.

The engines end with a materialized :class:`~repro.cubing.result.CubeResult`;
this package turns that batch artifact into something queryable at
serving time, in three layers:

* :mod:`~repro.serving.store` — :class:`CubeStore`, the on-disk format:
  per-cuboid sorted segments behind a checksummed footer index, written
  once and read lazily so a query touches only the cuboids it needs;
* :mod:`~repro.serving.view` — :class:`StoredCubeView`, the planner:
  the full :class:`~repro.query.view.CubeView` API over a store, with
  ancestor-cuboid re-aggregation for non-materialized cuboids; it
  keeps no answers, only the store's LRU segment cache;
* :mod:`~repro.serving.server` — :class:`CubeServer`, the front end:
  a thread-per-connection HTTP query server with an LRU of encoded
  replies, bounded admission, per-query deadlines and typed retriable
  load-shedding errors (``python -m repro serve-cube``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "server": ["CubeServer", "execute_query"],
    "store": [
        "CubeStore", "ServingCounters", "StoreError", "estimate_cube_bytes",
    ],
    "view": ["StoredCubeView"],
})
