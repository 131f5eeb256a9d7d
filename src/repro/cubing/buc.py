"""BUC — Bottom-Up Computation of sparse and iceberg cubes (Beyer &
Ramakrishnan [15]).

BUC walks the cube lattice bottom-up: it aggregates the current group-by,
then for each remaining dimension partitions the rows by that dimension's
value and recurses into each partition.  Because each recursion only refines
already-formed partitions, every cuboid is produced exactly once and small
partitions prune early — which is also what makes BUC the right tool for

* the SP-Sketch builder (Section 4.2 footnote: *"our implementation employs
  here the classic BUC algorithm"*) — skew detection is exactly an iceberg
  cube with ``min_support = beta``;
* SP-Cube's reducers (Algorithm 3 line 30: *"compute BUC over ancestors"*).

This implementation supports iceberg thresholds, restriction to a subset of
cuboids, and arbitrary aggregate functions via the merge protocol.

Two kernels compute the same cube:

* ``kernel="array"`` (default) — an iterative kernel with three fast
  paths.  One-row segments — the bulk of the tree on sparse data — skip
  partitioning entirely: the whole subtree is the subsets of the
  remaining dimensions, enumerated directly in recursion preorder.
  Multi-row refinements are adaptive: small segments partition via a
  C-level stable sort + ``groupby`` run detection (no per-row bytecode),
  huge ones (> ``_SORT_MAX_SEGMENT``) via the legacy dict build, whose
  O(n) hashing beats the sort's O(n log n) at scale.  Segments are
  aggregated with one bulk ``fold`` (``len`` for ``count``) instead of
  a Python-level ``add`` per row.
* ``kernel="legacy"`` — the original recursive implementation, kept as
  the bit-identity oracle for the property tests.

The kernels are **bit-identical** by construction: a stable sort keeps
rows with equal partition values in their incoming order — exactly the
order the legacy dict's per-key ``append`` produced — so fold order (and
therefore floating-point results) never changes; ``groupby`` merges
``==``-equal adjacent keys, conflating equal-but-distinct keys
(``1``/``True``) the same way the legacy dict did, and reports the
first-seen value just like ``setdefault``; the explicit stack pushes
children in reverse so pops replay the recursion's exact depth-first
preorder, preserving emission (and ``CubeResult`` insertion) order.
Partitions whose values do not admit a total order (mixed types) fall
back to the legacy repr-tie-broken partitioner for that refinement.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..aggregates.functions import AggregateFunction, Count
from ..relation.relation import Relation
from .result import CubeResult

_KERNELS = ("array", "legacy")

#: Above this size a refinement partitions through the legacy dict build:
#: hashing is O(n) against the sort's O(n log n), and huge segments are
#: where the asymptotics dominate the constants.  Below it the C-level
#: sort + groupby wins — small segments are the bulk of the tree, and
#: there the dict's per-row bytecode is the cost.  Both strategies emit
#: byte-identical runs (see ``_runs_by``), so the switch is pure timing.
_SORT_MAX_SEGMENT = 4096


def buc_cube(
    relation: Relation,
    aggregate: Optional[AggregateFunction] = None,
    min_support: int = 1,
    masks: Optional[Iterable[int]] = None,
    kernel: str = "array",
) -> CubeResult:
    """Compute an (iceberg) cube with BUC.

    Parameters
    ----------
    relation:
        Input relation.
    aggregate:
        Aggregate function (default ``count``).
    min_support:
        Iceberg threshold: only c-groups with at least this many
        contributing rows are output.  ``1`` gives the full cube.
    masks:
        When given, only these cuboids are emitted (pruning still uses the
        full recursion so partition sizes stay correct).
    kernel:
        ``"array"`` (iterative sort-based, default) or ``"legacy"``
        (recursive dict-based).  Both produce bit-identical results.

    Returns
    -------
    CubeResult
    """
    aggregate = aggregate or Count()
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if kernel not in _KERNELS:
        raise ValueError(f"unknown BUC kernel {kernel!r}; known: {_KERNELS}")
    d = relation.schema.num_dimensions
    wanted = None if masks is None else frozenset(masks)

    result = CubeResult(relation.schema)
    rows = list(relation.rows)
    if kernel == "legacy":
        _buc_recurse(
            rows,
            first_dim=0,
            mask=0,
            values=(),
            d=d,
            aggregate=aggregate,
            min_support=min_support,
            wanted=wanted,
            result=result,
        )
        return result

    fold = _segment_folder(aggregate)
    result_add = result.add

    def visit(mask: int, values: Tuple, segment: List[Tuple]) -> None:
        if wanted is None or mask in wanted:
            result_add(mask, values, fold(segment))

    _buc_iterative(rows, d, min_support, visit)
    return result


def iceberg_groups(
    rows: Sequence[Tuple],
    num_dimensions: int,
    min_support: int,
    kernel: str = "array",
) -> Dict[Tuple[int, Tuple], int]:
    """All c-groups with frequency >= ``min_support``, with their counts.

    A thin wrapper over the BUC recursion used by the SP-Sketch builder,
    working directly on row lists (the sketch reducer holds a sample, not a
    :class:`Relation`).
    """
    if kernel not in _KERNELS:
        raise ValueError(f"unknown BUC kernel {kernel!r}; known: {_KERNELS}")
    found: Dict[Tuple[int, Tuple], int] = {}

    def visit(mask: int, values: Tuple, partition: List[Tuple]) -> None:
        found[(mask, values)] = len(partition)

    if kernel == "legacy":
        _buc_scan(
            list(rows),
            first_dim=0,
            mask=0,
            values=(),
            d=num_dimensions,
            min_support=min_support,
            visit=visit,
        )
    else:
        _buc_iterative(list(rows), num_dimensions, min_support, visit)
    return found


def _segment_folder(aggregate: AggregateFunction):
    """A ``segment -> finalized value`` fold for the array kernel.

    One bulk :meth:`~AggregateFunction.fold` of the segment's measures,
    by contract the exact ``create``/``add`` left fold.  ``count`` (the
    exact type, not a subclass) skips even the measure column: ``len``.
    """
    if type(aggregate) is Count:
        return len
    create, fold = aggregate.create, aggregate.fold
    finalize = aggregate.finalize
    measure = itemgetter(-1)
    return lambda segment: finalize(
        fold(create(), list(map(measure, segment)))
    )


def _buc_iterative(
    rows: List[Tuple],
    d: int,
    min_support: int,
    visit,
) -> None:
    """Iterative BUC: explicit stack, sort-based refinement.

    Visits qualifying groups in the exact depth-first preorder of the
    legacy recursion (children are pushed reversed onto the LIFO stack).
    """
    if len(rows) < min_support:
        return
    stack: List[Tuple[List[Tuple], int, int, Tuple]] = [(rows, 0, 0, ())]
    pop = stack.pop
    while stack:
        segment, first_dim, mask, values = pop()
        if len(segment) == 1:
            # Singleton fast path — the bulk of the tree on sparse data.
            # Every refinement of a one-row segment is that row again, so
            # the whole subtree is the subsets of the remaining dims; a
            # local stack replays the recursion's exact preorder without
            # any sorting or partition building.  (A singleton on the
            # stack implies min_support <= 1: pushes are gated on it.)
            row = segment[0]
            sub: List[Tuple[int, int, Tuple]] = [(first_dim, mask, values)]
            sub_pop = sub.pop
            while sub:
                sub_dim, sub_mask, sub_values = sub_pop()
                visit(sub_mask, sub_values, segment)
                sub.extend(
                    (child + 1, sub_mask | 1 << child,
                     sub_values + (row[child],))
                    for child in range(d - 1, sub_dim - 1, -1)
                )
            continue
        visit(mask, values, segment)
        if first_dim >= d:
            continue
        children: List[Tuple[List[Tuple], int, int, Tuple]] = []
        for dim in range(first_dim, d):
            runs = _runs_by(segment, dim)
            child_mask = mask | 1 << dim
            child_dim = dim + 1
            for value, partition in runs:
                if len(partition) >= min_support:
                    children.append(
                        (partition, child_dim, child_mask, values + (value,))
                    )
        stack.extend(reversed(children))


def _runs_by(
    segment: List[Tuple], dim: int
) -> List[Tuple[object, List[Tuple]]]:
    """Partition ``segment`` by dimension ``dim`` via sort + run-length.

    Returns ``(value, partition)`` pairs in sorted value order with rows
    in their incoming relative order (stable sort), matching
    :func:`_partition_by` exactly.  Mixed-type values that refuse to
    sort fall back to the legacy dict partitioner (repr tie-break).
    """
    if len(segment) > _SORT_MAX_SEGMENT:
        return list(_partition_by(segment, dim))
    getter = itemgetter(dim)
    try:
        ordered = sorted(segment, key=getter)
    except TypeError:
        return list(_partition_by(segment, dim))
    # groupby merges consecutive ==-equal keys and reports the run's
    # first key — the same conflation and first-seen choice the legacy
    # dict's setdefault made.  getter and groupby are both C-level, so
    # the whole refinement runs without per-row bytecode.
    return [
        (value, list(run)) for value, run in groupby(ordered, key=getter)
    ]


def _buc_recurse(
    rows: List[Tuple],
    first_dim: int,
    mask: int,
    values: Tuple,
    d: int,
    aggregate: AggregateFunction,
    min_support: int,
    wanted: Optional[frozenset],
    result: CubeResult,
) -> None:
    """Aggregate the current group, then refine by each remaining dimension."""
    if len(rows) < min_support:
        return
    if wanted is None or mask in wanted:
        state = aggregate.create()
        for row in rows:
            state = aggregate.add(state, row[-1])
        result.add(mask, values, aggregate.finalize(state))

    for dim in range(first_dim, d):
        for value, partition in _partition_by(rows, dim):
            _buc_recurse(
                partition,
                first_dim=dim + 1,
                mask=mask | 1 << dim,
                values=values + (value,),
                d=d,
                aggregate=aggregate,
                min_support=min_support,
                wanted=wanted,
                result=result,
            )


def _buc_scan(
    rows: List[Tuple],
    first_dim: int,
    mask: int,
    values: Tuple,
    d: int,
    min_support: int,
    visit,
) -> None:
    """BUC recursion skeleton that only reports qualifying groups."""
    if len(rows) < min_support:
        return
    visit(mask, values, rows)
    for dim in range(first_dim, d):
        for value, partition in _partition_by(rows, dim):
            _buc_scan(
                partition,
                first_dim=dim + 1,
                mask=mask | 1 << dim,
                values=values + (value,),
                d=d,
                min_support=min_support,
                visit=visit,
            )


def _partition_by(rows: List[Tuple], dim: int):
    """Partition rows by the value of dimension ``dim``.

    Yields ``(value, partition)`` in deterministic value order so BUC output
    is stable across runs.
    """
    partitions: Dict[object, List[Tuple]] = {}
    for row in rows:
        partitions.setdefault(row[dim], []).append(row)
    try:
        ordered = sorted(partitions)
    except TypeError:
        ordered = sorted(partitions, key=repr)
    for value in ordered:
        yield value, partitions[value]
