"""The Skews-and-Partitions Sketch (paper Section 4).

For every cuboid of the cube lattice the SP-Sketch records two items:

* ``skews(C)`` — the skewed c-groups of ``C`` (Definition 2.7:
  ``|set(g)| > m``), stored as a hash table keyed by the group's dimension
  values (Section 5: *"maintaining a hash table in which items correspond
  to the skewed c-groups"*);
* ``partition_elements(C)`` — the ``k - 1`` lexicographic boundaries that
  split the cuboid's tuples into ``k`` balanced ranges (Definition 4.1).

Two builders are provided, mirroring the paper's exposition:

* :func:`build_exact_sketch` — the *utopian* sketch, computed from fully
  sorted data.  Too expensive in production (it sorts ``R`` per cuboid) but
  exact; used as ground truth in tests and available for ablations.
* :func:`build_sketch_from_sample` — the approximated sketch of
  Algorithm 2: skews are the c-groups whose **sample** count exceeds
  ``beta = ln(nk)``, and partition elements are sample quantiles.

Both sort each cuboid's projections once (:func:`_sketch`).

The sketch is independent of the aggregate function: once built it can
serve any number of cube computations (Section 4 preamble).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import eq
from typing import Dict, Iterator, List, Sequence, Tuple

from ..mapreduce.sizes import estimate_bytes
from ..relation.lattice import (
    GroupValues,
    all_cuboids,
    bisect_ordered,
    ordered,
    project_rows,
    projector,
    sort_token,
)
from ..relation.relation import Relation
from .partition import partition_elements_from_sorted


class SketchError(RuntimeError):
    """Raised when a sketch violates a structural invariant."""


@dataclass
class CuboidSketch:
    """Per-cuboid record: skewed groups (with counts) and partition bounds."""

    skewed: Dict[GroupValues, int] = field(default_factory=dict)
    partition_elements: List[GroupValues] = field(default_factory=list)


class SPSketch:
    """The assembled sketch: one :class:`CuboidSketch` per lattice node."""

    def __init__(
        self,
        num_dimensions: int,
        num_partitions: int,
        cuboids: Dict[int, CuboidSketch],
    ):
        self.num_dimensions = num_dimensions
        self.num_partitions = num_partitions
        self.cuboids = cuboids
        for mask in all_cuboids(num_dimensions):
            self.cuboids.setdefault(mask, CuboidSketch())
        self._probes = None  # lazily-built skew_bits probe list
        self._size_bytes = None  # lazily-computed serialized size

    # -- queries used by Algorithm 3 -----------------------------------------

    def is_skewed(self, mask: int, values: GroupValues) -> bool:
        """Hash-table membership test of Section 5."""
        return values in self.cuboids[mask].skewed

    def partition_of(self, mask: int, values: GroupValues) -> int:
        """Partition (reducer range) of a non-skewed c-group."""
        return bisect_ordered(self.cuboids[mask].partition_elements, values)

    def skew_bits(self, row: Sequence) -> int:
        """Bitmap over all ``2^d`` cuboids: bit ``mask`` set iff the row's
        projection onto ``mask`` is a skewed c-group.

        This is the planner's cache key — two rows with equal skew bitmaps
        have structurally identical marking plans.  The probe list (cuboids
        that have any skewed group at all, with compiled projectors) is
        built on first use; the sketch is immutable once built.
        """
        probes = self._probes
        if probes is None:
            d = self.num_dimensions
            probes = self._probes = [
                (1 << mask, projector(mask, d), cuboid.skewed)
                for mask, cuboid in self.cuboids.items()
                if cuboid.skewed
            ]
        bits = 0
        for bit, get, skewed in probes:
            if get(row) in skewed:
                bits |= bit
        return bits

    def skew_bits_of(self, rows: Sequence[Sequence]) -> List[int]:
        """:meth:`skew_bits` of every row, one cuboid column at a time.

        Each cuboid with any skewed group projects the whole chunk and
        tests membership with C-level ``map``s; ``zip`` turns the columns
        into one hit tuple per row, and only the distinct hit tuples (a
        handful) are assembled into bitmaps in Python.
        """
        d = self.num_dimensions
        masks = [m for m, cuboid in self.cuboids.items() if cuboid.skewed]
        if not masks:
            return [0] * len(rows)
        hits = list(zip(*(
            map(self.cuboids[m].skewed.__contains__, project_rows(rows, m, d))
            for m in masks
        )))
        bitmap = {
            row_hits: sum(1 << m for m, hit in zip(masks, row_hits) if hit)
            for row_hits in set(hits)
        }
        return list(map(bitmap.__getitem__, hits))

    # -- inspection ------------------------------------------------------------

    def skewed_groups(self) -> Iterator[Tuple[int, GroupValues, int]]:
        """All recorded skewed groups as ``(mask, values, count)``."""
        for mask in sorted(self.cuboids):
            for values, count in ordered(self.cuboids[mask].skewed.items()):
                yield mask, values, count

    @property
    def num_skewed(self) -> int:
        return sum(len(c.skewed) for c in self.cuboids.values())

    def to_payload(self) -> Tuple:
        """A flat serializable view — what would cross the DFS to machines."""
        return tuple(
            (
                mask,
                tuple(ordered(cuboid.skewed.items())),
                tuple(cuboid.partition_elements),
            )
            for mask, cuboid in sorted(self.cuboids.items())
        )

    def serialized_bytes(self) -> int:
        """Estimated serialized size (Figures 5c / 6c measure this).

        Cached on first use — the sketch is immutable once built, and the
        size is consulted repeatedly (metrics extras, trace events, the
        sketch-size bench).
        """
        size = self._size_bytes
        if size is None:
            size = self._size_bytes = estimate_bytes(self.to_payload())
        return size

    def to_dict(self) -> Dict:
        """Summary statistics as plain JSON — the sketch's self-report.

        One shared accessor for everything that describes a sketch: the
        ``doctor`` diagnostics, the ``sketch`` CLI command, SP-Cube's
        metrics extras, and the sketch-size bench all read these numbers
        from here instead of recomputing them ad hoc.  Cuboid keys are
        masks (ints); callers serializing to JSON get string keys for
        free via ``json.dumps``.
        """
        skewed_per_cuboid = {
            mask: len(cuboid.skewed)
            for mask, cuboid in sorted(self.cuboids.items())
            if cuboid.skewed
        }
        elements_per_cuboid = {
            mask: len(cuboid.partition_elements)
            for mask, cuboid in sorted(self.cuboids.items())
        }
        return {
            "num_dimensions": self.num_dimensions,
            "num_partitions": self.num_partitions,
            "num_cuboids": len(self.cuboids),
            "num_skewed": self.num_skewed,
            "skewed_per_cuboid": skewed_per_cuboid,
            "num_partition_elements": sum(elements_per_cuboid.values()),
            "partition_elements_per_cuboid": elements_per_cuboid,
            "serialized_bytes": self.serialized_bytes(),
        }

    def validate_monotonic(self) -> None:
        """Check downward monotonicity of recorded skews.

        If a group ``g`` is skewed, every sub-group (projection onto fewer
        attributes) has a superset tuple set and must be skewed too.  Both
        builders guarantee this by construction (a sample count can only
        grow when attributes are dropped); a violation means corruption.
        """
        d = self.num_dimensions
        for mask, cuboid in self.cuboids.items():
            for values in cuboid.skewed:
                for dim_pos, dim in enumerate(_mask_dims(mask, d)):
                    child_mask = mask & ~(1 << dim)
                    child_values = values[:dim_pos] + values[dim_pos + 1 :]
                    if not self.is_skewed(child_mask, child_values):
                        raise SketchError(
                            f"skew monotonicity violated: {mask:b}/{values} "
                            f"skewed but {child_mask:b}/{child_values} is not"
                        )

    def __repr__(self) -> str:
        return (
            f"SPSketch(d={self.num_dimensions}, k={self.num_partitions}, "
            f"{self.num_skewed} skewed groups, "
            f"~{self.serialized_bytes()} bytes)"
        )


def build_exact_sketch(
    relation: Relation,
    num_partitions: int,
    memory_records: int,
) -> SPSketch:
    """The utopian SP-Sketch: exact skews and exact partition elements.

    Sorts the relation once per cuboid — ``O(2^d n log n)`` work, which is
    why the paper replaces it with the sampled variant; exact output makes
    it the test oracle for :func:`build_sketch_from_sample`.
    """
    d = relation.schema.num_dimensions
    return _sketch(relation.rows, d, num_partitions, memory_records)


def build_sketch_from_sample(
    sample_rows: Sequence[Tuple],
    num_dimensions: int,
    num_partitions: int,
    beta: float,
) -> SPSketch:
    """Algorithm 2's ``build-sketch``: the sketch from a Bernoulli sample.

    Skews are the c-groups whose sample count exceeds ``beta`` (counts the
    paper takes from an iceberg BUC); partition elements are the sample's
    ``k - 1`` per-cuboid quantile projections.
    """
    return _sketch(list(sample_rows), num_dimensions, num_partitions, beta)


def _sketch(
    rows: Sequence[Tuple], d: int, k: int, threshold: float
) -> SPSketch:
    """One sort per cuboid gives both halves of its sketch.

    Each c-group is a run of the projections in :func:`ordered` order.  A
    run longer than ``threshold`` starts where ``groups[i] == groups[i +
    span]``, with ``span = floor(threshold)`` (C-level ``map``/``compress``),
    and ends where ``bisect`` says, over the groups' sort tokens if ``<``
    cannot compare them; a stable sort keys it by its first row's
    projection.  The partition elements are the same list's quantiles.
    """
    span = max(0, math.floor(threshold))
    cuboids: Dict[int, CuboidSketch] = {}
    for mask in all_cuboids(d):
        groups = keys = ordered(list(project_rows(rows, mask, d)))
        hits = list(compress(
            range(len(groups)), map(eq, groups, islice(groups, span, None))
        ))
        skewed = {}
        i = 0
        while i < len(hits):
            # The first hit at or past the last run's end starts a run.
            start = hits[i]
            try:
                end = bisect_right(keys, keys[start], start + span)
            except TypeError:  # `<` cannot compare them: bisect their tokens
                keys = list(map(sort_token, groups))
                continue
            skewed[groups[start]] = end - start
            i = bisect_left(hits, end, i)
        cuboids[mask] = CuboidSketch(
            skewed, partition_elements_from_sorted(groups, k)
        )
    return SPSketch(d, k, cuboids)


def _mask_dims(mask: int, d: int) -> List[int]:
    return [i for i in range(d) if mask >> i & 1]
