"""Lexicographic range partitioning of cuboids (paper Section 4.1).

For a cuboid ``C``, rows are ordered by their projection onto ``C``'s
dimensions (the paper's ``<_C``); the *partition elements* are the
projections at positions ``i * n / k`` of the sorted order.  The induced
split has the two properties of Proposition 4.2 that SP-Cube's load
balancing rests on:

1. all tuples of a non-skewed c-group land in the same partition, and
2. excluding skewed groups, every partition has ``O(m)`` tuples.

Routing a group to its partition is a ``bisect_left`` over the elements in
the one value order (``lattice.bisect_ordered``): partition 0 holds groups
``<=`` the first element, partition ``i`` holds groups in ``(element_i,
element_{i+1}]``, and the last partition holds the rest — exactly the
paper's bucket definition.  A group equal to an element goes to the
partition *ending* at it, so a whole (non-skewed) c-group, whose members
compare equal, stays together.
"""

from __future__ import annotations

from typing import AbstractSet, List, Sequence, Tuple

from ..relation.lattice import GroupValues, bisect_ordered, project_rows


def partition_elements_from_sorted(
    sorted_groups: Sequence[GroupValues], num_partitions: int
) -> List[GroupValues]:
    """The ``k - 1`` partition elements (Definition 4.1) of an already
    sorted group list: a cuboid's projections of the relation or sample."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    count = len(sorted_groups)
    if count == 0 or num_partitions == 1:
        return []
    elements = []
    for i in range(1, num_partitions):
        position = min(i * count // num_partitions, count - 1)
        elements.append(sorted_groups[position])
    return elements


#: Partition index of a group given its cuboid's partition elements.
find_partition = bisect_ordered


def partition_loads(
    rows: Sequence[Tuple],
    mask: int,
    num_dimensions: int,
    elements: Sequence[GroupValues],
    num_partitions: int,
    exclude_groups: AbstractSet[GroupValues] = frozenset(),
) -> List[int]:
    """Tuples per partition, optionally excluding some c-groups.

    Proposition 4.2(2) bounds every partition's load *excluding skewed
    groups* — those route through the map-side partial-aggregation path,
    not the range partition.  The sketch audit passes the skewed group
    set here to measure the balance the proposition actually promises.
    """
    sizes = [0] * num_partitions
    element_list = list(elements)
    for group in project_rows(rows, mask, num_dimensions):
        if group in exclude_groups:
            continue
        sizes[bisect_ordered(element_list, group)] += 1
    return sizes
