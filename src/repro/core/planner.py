"""The tuple-lattice marking plan shared by SP-Cube's mapper and reducers.

Algorithm 3's mapper walks ``lattice(t)`` bottom-up in BFS order:

* a **skewed** node is partially aggregated map-side and marked;
* the first **non-skewed** unmarked node ``g`` is *emitted* — the tuple is
  sent to ``g``'s range partition — and ``g`` plus all its (transitively)
  unmarked ancestors are marked, because the receiving reducer can derive
  every ancestor locally from ``set(g)`` (Observations 2.5/2.6).

The reducer must later reconstruct *which* ancestors each emitted base
group covers.  Crucially, the whole marking outcome is a function of only
the tuple's **skew bitmap** (which of its ``2^d`` projections the sketch
flags as skewed): the BFS order is fixed, and marking decisions consult
nothing else.  Mapper and reducer therefore share this planner, and plans
are memoized by bitmap — for real data distributions only a handful of
distinct bitmaps occur, so planning cost is amortized to a dictionary hit
per tuple.

Consistency argument (why reducer-side recomputation is sound): whether an
ancestor node ``a`` of ``lattice(t)`` is covered by base ``g`` depends only
on the skew statuses of nodes whose mask is a subset of ``a``'s mask, and
those are projections of ``t`` onto subsets of ``a``'s attributes — on
which *all* tuples of ``set(a)`` agree.  Hence every tuple contributing to
``a`` routes ``a``'s computation to the same base group and, via
Proposition 4.2(1), to the same reducer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

from ..relation.lattice import (
    bfs_order,
    descendants,
    project,
    strict_supersets,
)
from .sketch import SPSketch


class PlannerError(RuntimeError):
    """Raised when the sketch's skew marks are inconsistent with the lattice."""


class TuplePlan:
    """The marking outcome for one skew bitmap.

    Attributes
    ----------
    skewed_masks:
        Cuboid masks partially aggregated map-side for this tuple.
    emissions:
        ``(base_mask, covered_masks)`` pairs: the tuple is emitted once per
        base mask; the receiving reducer computes the c-groups of every
        covered mask (the base and its newly-marked ancestors).
    covered_by:
        ``{base_mask: covered_masks}`` — the reducer-side lookup.
    """

    __slots__ = ("skewed_masks", "emissions", "covered_by")

    def __init__(
        self,
        skewed_masks: Tuple[int, ...],
        emissions: Tuple[Tuple[int, Tuple[int, ...]], ...],
    ):
        self.skewed_masks = skewed_masks
        self.emissions = emissions
        self.covered_by: Dict[int, Tuple[int, ...]] = dict(emissions)

    @property
    def num_emitted(self) -> int:
        return len(self.emissions)


@lru_cache(maxsize=65536)
def plan_for_skew_bits(skew_bits: int, num_dimensions: int) -> TuplePlan:
    """Run Algorithm 3's marking loop for one skew bitmap.

    ``skew_bits`` has bit ``mask`` set iff the tuple's projection onto
    cuboid ``mask`` is skewed according to the sketch.
    """
    marked = 0  # bitmap over masks
    skewed_masks = []
    emissions = []

    for mask in bfs_order(num_dimensions):
        if marked >> mask & 1:
            continue
        if skew_bits >> mask & 1:
            skewed_masks.append(mask)
            marked |= 1 << mask
            continue
        covered = [mask]
        marked |= 1 << mask
        for superset in strict_supersets(mask, num_dimensions):
            if marked >> superset & 1:
                continue
            if skew_bits >> superset & 1:
                # set(superset) is a subset of set(mask); a skewed ancestor
                # of a non-skewed node is impossible for any sample.
                raise PlannerError(
                    f"skew bitmap {skew_bits:b} marks superset {superset:b} "
                    f"of non-skewed {mask:b} as skewed"
                )
            covered.append(superset)
            marked |= 1 << superset
        emissions.append((mask, tuple(covered)))

    return TuplePlan(tuple(skewed_masks), tuple(emissions))


@lru_cache(maxsize=65536)
def plan_without_covering(skew_bits: int, num_dimensions: int) -> TuplePlan:
    """Ablation plan: skew handling kept, ancestor covering disabled.

    Every non-skewed node is emitted on its own (``covered = (node,)``),
    isolating the network saving of Observation 2.6 in the ablation bench.
    Like the covering walk, it refuses a bitmap that is not downward
    monotone (the mapper's skew roll-up relies on it).
    """
    skewed_masks = []
    emissions = []
    for mask in bfs_order(num_dimensions):
        if skew_bits >> mask & 1:
            for child in descendants(mask, num_dimensions):
                if not skew_bits >> child & 1:
                    raise PlannerError(
                        f"skew bitmap {skew_bits:b} marks {mask:b} skewed "
                        f"but not its descendant {child:b}"
                    )
            skewed_masks.append(mask)
        else:
            emissions.append((mask, (mask,)))
    return TuplePlan(tuple(skewed_masks), tuple(emissions))


def plan_tuple(row: Sequence, sketch: SPSketch) -> TuplePlan:
    """The marking plan for one tuple under ``sketch``."""
    return plan_for_skew_bits(sketch.skew_bits(row), sketch.num_dimensions)


def replay_routing(relation, sketch: SPSketch, num_mappers: int):
    """Round 2's per-reducer record delivery, re-derived from the sketch.

    Walks every tuple's marking plan exactly as the mapper does: ranged
    emissions go to ``1 + partition_of(base)``, and each mapper's close()
    flushes one record per distinct skewed c-group it touched — counted
    by replaying the engine's ``relation.split(num_mappers)`` input
    split.  Returns ``(predicted, by_cuboid, skew_by_cuboid)``: records
    per reducer id, those broken down by routing base cuboid, and the
    skew reducer's flushes per cuboid.
    """
    d = sketch.num_dimensions
    predicted: Dict[int, int] = {
        r: 0 for r in range(sketch.num_partitions + 1)
    }
    by_cuboid: Dict[int, Dict[int, int]] = {}
    for row in relation:
        for base_mask, _covered in plan_tuple(row, sketch).emissions:
            values = project(row, base_mask, d)
            reducer = 1 + sketch.partition_of(base_mask, values)
            predicted[reducer] += 1
            cuboids = by_cuboid.setdefault(reducer, {})
            cuboids[base_mask] = cuboids.get(base_mask, 0) + 1

    skew_by_cuboid: Dict[int, int] = {}
    for chunk in relation.split(num_mappers):
        seen = set()
        for row in chunk:
            for mask in plan_tuple(row, sketch).skewed_masks:
                seen.add((mask, project(row, mask, d)))
        predicted[0] += len(seen)
        for mask, _values in seen:
            skew_by_cuboid[mask] = skew_by_cuboid.get(mask, 0) + 1
    if skew_by_cuboid:
        by_cuboid[0] = dict(skew_by_cuboid)
    return predicted, by_cuboid, skew_by_cuboid
