"""BUC — Bottom-Up Computation of sparse cubes (Beyer & Ramakrishnan [15]).

BUC aggregates the current group-by, then partitions its rows by each
remaining dimension and refines each partition, so every cuboid is
produced exactly once.  The paper runs it in the sketch builder and the
reducers; here the sketch reads its skews off one sort per cuboid and
the reducers group by projection, so this is a second sequential cube
beside :func:`~repro.cubing.sequential_cube`, on one iterative kernel.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..aggregates.functions import AggregateFunction, Count
from ..relation.lattice import ordered
from ..relation.relation import Relation
from .result import CubeResult

#: Above this size hashing's O(n) beats the sort's O(n log n); below it
#: the C-level sort beats the dict's per-row bytecode.
_SORT_MAX_SEGMENT = 4096


def buc_cube(
    relation: Relation,
    aggregate: Optional[AggregateFunction] = None,
) -> CubeResult:
    """Compute the full cube of ``relation`` with BUC (default ``count``)."""
    aggregate = aggregate or Count()
    d = relation.schema.num_dimensions
    result = CubeResult(relation.schema)
    fold = _segment_folder(aggregate)
    result_add = result.add
    rows = list(relation.rows)
    stack = [(rows, 0, 0, ())] if rows else []
    pop = stack.pop
    while stack:
        segment, first_dim, mask, values = pop()
        if len(segment) == 1:
            # The bulk of the tree on sparse data: every refinement of
            # a one-row segment is that row again.
            row = segment[0]
            sub: List[Tuple[int, int, Tuple]] = [(first_dim, mask, values)]
            sub_pop = sub.pop
            while sub:
                sub_dim, sub_mask, sub_values = sub_pop()
                result_add(sub_mask, sub_values, fold(segment))
                sub.extend(
                    (child + 1, sub_mask | 1 << child,
                     sub_values + (row[child],))
                    for child in range(d - 1, sub_dim - 1, -1)
                )
            continue
        result_add(mask, values, fold(segment))
        children: List[Tuple[List[Tuple], int, int, Tuple]] = []
        for dim in range(first_dim, d):
            children.extend(
                (partition, dim + 1, mask | 1 << dim, values + (value,))
                for value, partition in _runs_by(segment, dim)
            )
        # Pushed reversed so the pops walk the lattice in preorder.
        stack.extend(reversed(children))
    return result


def _segment_folder(aggregate: AggregateFunction):
    """A ``segment -> finalized value`` fold: one bulk
    :meth:`~AggregateFunction.fold` of the measures (``len`` for exactly
    ``Count``)."""
    if type(aggregate) is Count:
        return len
    create, fold = aggregate.create, aggregate.fold
    finalize, measure = aggregate.finalize, itemgetter(-1)
    return lambda segment: finalize(
        fold(create(), list(map(measure, segment)))
    )


def _runs_by(
    segment: List[Tuple], dim: int
) -> List[Tuple[object, List[Tuple]]]:
    """``(value, rows)`` runs of ``segment`` by dimension ``dim``, in
    :func:`ordered` value order, rows in incoming order, each keyed by its
    first-seen value (``1``/``True`` are one run): a C-level stable sort +
    ``groupby``, or a dict above ``_SORT_MAX_SEGMENT`` rows."""
    getter = itemgetter(dim)
    if len(segment) <= _SORT_MAX_SEGMENT:
        runs = groupby(ordered(segment, key=getter), getter)
        return [(value, list(run)) for value, run in runs]
    partitions: Dict[object, List[Tuple]] = {}
    for row in segment:
        partitions.setdefault(row[dim], []).append(row)
    return [(value, partitions[value]) for value in ordered(partitions)]
