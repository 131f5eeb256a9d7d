"""Aggregate functions with partial-aggregation (merge) semantics.

The paper (Section 7, following Gray et al.) divides aggregate functions into

* **distributive** — partial aggregates merge directly into the full one
  (``count``, ``sum``, ``min``, ``max``);
* **algebraic** — a small fixed-size intermediate state merges into the full
  result (``avg`` via (sum, count), ``variance`` via (n, sum, sum-of-squares));
* **holistic** — no constant-size partial state exists (``top-k most
  frequent``, ``median``, exact ``count-distinct``).

SP-Cube's map-side partial aggregation of skewed c-groups requires a
mergeable state; it therefore supports all distributive and algebraic
functions out of the box.  Holistic functions are still *expressible* here
(their state is the full multiset, merged by concatenation) but carry
``compact_state = False`` so the algorithms can refuse or warn — matching
the paper's discussion that efficient holistic support is future work.

Every function is expressed through the same four-operation protocol::

    state = fn.create()            # identity element
    state = fn.add(state, value)   # fold one measure value in
    state = fn.merge(s1, s2)       # combine two partial states
    result = fn.finalize(state)    # extract the aggregate value

``merge`` must be associative and commutative with ``create()`` as the
identity — the property tests in ``tests/aggregates`` check exactly this,
because the correctness of every distributed algorithm in this repository
rests on it.

A fifth method is the bulk form of ``add``, which every kernel that
aggregates a batch goes through (SP-Cube's reducers and mappers, BUC)::

    state = fn.fold(state, values)  # fold a sequence of values in, in order

``fold`` is **exactly the left fold of** ``add`` — ``reduce(fn.add,
values, state)`` — equal by ``==`` *and* ``repr``, floats to the last bit
and ``Counter`` insertion order included, and like ``add`` it never
mutates ``state``.  An override may only change *how* the fold runs (one
C-level call instead of a Python call per value), never *what* it
computes: no builtin ``sum`` (compensated for floats since Python 3.12),
and ``min``/``max`` must see ``state`` first.  Same for ``fold_groups``.
"""

from __future__ import annotations

import enum
import heapq
import math
import operator
from abc import ABC, abstractmethod
from collections import Counter
from functools import reduce
from itertools import chain, repeat
from typing import Any, Dict, Iterable, List, Sequence, Tuple


class AggregateKind(enum.Enum):
    """Gray et al.'s aggregate taxonomy, as used in paper Section 7."""

    DISTRIBUTIVE = "distributive"
    ALGEBRAIC = "algebraic"
    HOLISTIC = "holistic"


class UnsupportedAggregateError(RuntimeError):
    """Raised when an algorithm cannot honour an aggregate's requirements."""


class AggregateFunction(ABC):
    """Protocol every aggregate implements; see module docstring."""

    #: Short name used in registries and reports.
    name: str = "abstract"
    #: Taxonomy class (Section 7).
    kind: AggregateKind = AggregateKind.DISTRIBUTIVE
    #: True when the partial state has (near-)constant size, making
    #: map-side partial aggregation a genuine compression.
    compact_state: bool = True

    @abstractmethod
    def create(self) -> Any:
        """The identity state (aggregate of the empty multiset)."""

    @abstractmethod
    def add(self, state: Any, value) -> Any:
        """Fold one measure value into ``state``; returns the new state."""

    def fold(self, state: Any, values: Sequence) -> Any:
        """Fold ``values`` into ``state`` in order: the left fold of
        :meth:`add` (see the module docstring for the override contract)."""
        return reduce(self.add, values, state)

    def fold_groups(self, groups: Iterable[Sequence]) -> List:
        """``[finalize(fold(create(), v)) for v in groups]``, exactly."""
        create, fold, finalize = self.create, self.fold, self.finalize
        return [finalize(fold(create(), values)) for values in groups]

    @abstractmethod
    def merge(self, left: Any, right: Any) -> Any:
        """Combine two partial states; associative and commutative."""

    @abstractmethod
    def finalize(self, state: Any):
        """Extract the final aggregate value from a state."""

    def state_size(self, state: Any) -> int:
        """Approximate size of ``state`` in value-slots, for traffic metrics."""
        return 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Count(AggregateFunction):
    """``COUNT(*)`` — the paper's default aggregate. Distributive."""

    name = "count"
    kind = AggregateKind.DISTRIBUTIVE

    def create(self) -> int:
        return 0

    def add(self, state: int, value) -> int:
        return state + 1

    def fold(self, state: int, values: Sequence) -> int:
        return state + len(values)

    def fold_groups(self, groups: Iterable[Sequence]) -> List[int]:
        return list(map(len, groups))

    def merge(self, left: int, right: int) -> int:
        return left + right

    def finalize(self, state: int) -> int:
        return state


class Sum(AggregateFunction):
    """``SUM(B)``. Distributive."""

    name = "sum"
    kind = AggregateKind.DISTRIBUTIVE

    def create(self):
        return 0

    def add(self, state, value):
        return state + value

    def fold(self, state, values: Sequence):
        return reduce(operator.add, values, state)

    def fold_groups(self, groups: Iterable[Sequence]) -> List:
        return list(map(reduce, repeat(operator.add), groups, repeat(0)))

    def merge(self, left, right):
        return left + right

    def finalize(self, state):
        return state


class Min(AggregateFunction):
    """``MIN(B)``. Distributive; identity is +infinity."""

    name = "min"
    kind = AggregateKind.DISTRIBUTIVE

    def create(self) -> float:
        return math.inf

    def add(self, state, value):
        return value if value < state else state

    def fold(self, state, values: Sequence):
        # min keeps its first argument unless a later one is smaller.
        return min(chain((state,), values))

    def merge(self, left, right):
        return left if left < right else right

    def finalize(self, state):
        return None if state == math.inf else state


class Max(AggregateFunction):
    """``MAX(B)``. Distributive; identity is -infinity."""

    name = "max"
    kind = AggregateKind.DISTRIBUTIVE

    def create(self) -> float:
        return -math.inf

    def add(self, state, value):
        return value if value > state else state

    def fold(self, state, values: Sequence):
        return max(chain((state,), values))

    def merge(self, left, right):
        return left if left > right else right

    def finalize(self, state):
        return None if state == -math.inf else state


class Average(AggregateFunction):
    """``AVG(B)``. Algebraic: state is ``(sum, count)`` (paper Section 5.1).

    The reducer combines partial sums and counts and divides — exactly the
    example the paper gives for algebraic handling of skewed groups.
    """

    name = "avg"
    kind = AggregateKind.ALGEBRAIC

    def create(self) -> Tuple[float, int]:
        return (0, 0)

    def add(self, state, value):
        total, count = state
        return (total + value, count + 1)

    def fold(self, state, values: Sequence):
        total, count = state
        return (reduce(operator.add, values, total), count + len(values))

    def fold_groups(self, groups: Iterable[Sequence]) -> List:
        groups = list(groups)
        if not all(groups):  # an empty group's average is None
            return super().fold_groups(groups)
        totals = map(reduce, repeat(operator.add), groups, repeat(0))
        return list(map(operator.truediv, totals, map(len, groups)))

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def finalize(self, state):
        total, count = state
        return None if count == 0 else total / count

    def state_size(self, state) -> int:
        return 2


class Variance(AggregateFunction):
    """Population variance. Algebraic: state is ``(n, sum, sum_sq)``."""

    name = "variance"
    kind = AggregateKind.ALGEBRAIC

    def create(self) -> Tuple[int, float, float]:
        return (0, 0.0, 0.0)

    def add(self, state, value):
        n, total, total_sq = state
        return (n + 1, total + value, total_sq + value * value)

    def fold(self, state, values: Sequence):
        n, total, total_sq = state
        return (
            n + len(values),
            reduce(operator.add, values, total),
            reduce(operator.add, map(operator.mul, values, values), total_sq),
        )

    def merge(self, left, right):
        return (
            left[0] + right[0],
            left[1] + right[1],
            left[2] + right[2],
        )

    def finalize(self, state):
        n, total, total_sq = state
        if n == 0:
            return None
        mean = total / n
        return max(total_sq / n - mean * mean, 0.0)

    def state_size(self, state) -> int:
        return 3


class TopKFrequent(AggregateFunction):
    """``top-k most frequent`` measure values — the paper's holistic example.

    The exact answer needs the full value histogram, so the partial state is
    a :class:`collections.Counter`; merging concatenates histograms.  The
    state is *not* compact, which is precisely why holistic functions strain
    map-side partial aggregation (Section 7).
    """

    name = "top_k"
    kind = AggregateKind.HOLISTIC
    compact_state = False

    def __init__(self, k: int = 3):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def create(self) -> Counter:
        return Counter()

    def add(self, state: Counter, value) -> Counter:
        updated = Counter(state)
        updated[value] += 1
        return updated

    def fold(self, state: Counter, values: Sequence) -> Counter:
        # One copy per batch, not per value; ``update`` inserts unseen
        # values at the end, as ``add`` does.
        updated = Counter(state)
        updated.update(values)
        return updated

    def merge(self, left: Counter, right: Counter) -> Counter:
        merged = Counter(left)
        merged.update(right)
        return merged

    def finalize(self, state: Counter) -> Tuple:
        # Deterministic tie-break on the value itself so distributed and
        # sequential runs agree bit-for-bit.
        top = heapq.nsmallest(
            self.k, state.items(), key=lambda item: (-item[1], item[0])
        )
        return tuple(value for value, _count in top)

    def state_size(self, state: Counter) -> int:
        return max(len(state), 1)

    def __repr__(self) -> str:
        return f"TopKFrequent(k={self.k})"


class Median(AggregateFunction):
    """Exact median — holistic; state is the sorted list of values."""

    name = "median"
    kind = AggregateKind.HOLISTIC
    compact_state = False

    def create(self) -> List:
        return []

    def add(self, state: List, value) -> List:
        return state + [value]

    def merge(self, left: List, right: List) -> List:
        return left + right

    def finalize(self, state: List):
        if not state:
            return None
        ordered = sorted(state)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    def state_size(self, state: List) -> int:
        return max(len(state), 1)


class CountDistinct(AggregateFunction):
    """Exact ``COUNT(DISTINCT B)`` — holistic; state is the value set."""

    name = "count_distinct"
    kind = AggregateKind.HOLISTIC
    compact_state = False

    def create(self) -> frozenset:
        return frozenset()

    def add(self, state: frozenset, value) -> frozenset:
        return state | {value}

    def merge(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def finalize(self, state: frozenset) -> int:
        return len(state)

    def state_size(self, state: frozenset) -> int:
        return max(len(state), 1)


class Multi(AggregateFunction):
    """Several aggregates evaluated in one pass over the same cube.

    The state is the tuple of member states and the result the tuple of
    member results, so one SP-Cube run can answer e.g. ``count``, ``sum``
    and ``avg`` simultaneously — the natural companion to the SP-Sketch
    being aggregate-independent (Section 4).

    The combined function is as strong as its weakest member: it is
    holistic (and non-compact) as soon as any member is.
    """

    name = "multi"

    def __init__(self, functions: "Tuple[AggregateFunction, ...]"):
        members = tuple(functions)
        if not members:
            raise ValueError("Multi needs at least one aggregate")
        self.functions = members
        kinds = {fn.kind for fn in members}
        if AggregateKind.HOLISTIC in kinds:
            self.kind = AggregateKind.HOLISTIC
        elif AggregateKind.ALGEBRAIC in kinds:
            self.kind = AggregateKind.ALGEBRAIC
        else:
            self.kind = AggregateKind.DISTRIBUTIVE
        self.compact_state = all(fn.compact_state for fn in members)
        self.name = "multi(" + ",".join(fn.name for fn in members) + ")"

    def create(self) -> Tuple:
        return tuple(fn.create() for fn in self.functions)

    def add(self, state: Tuple, value) -> Tuple:
        return tuple(
            fn.add(s, value) for fn, s in zip(self.functions, state)
        )

    def fold(self, state: Tuple, values: Sequence) -> Tuple:
        return tuple(
            fn.fold(s, values) for fn, s in zip(self.functions, state)
        )

    def merge(self, left: Tuple, right: Tuple) -> Tuple:
        return tuple(
            fn.merge(ls, rs)
            for fn, ls, rs in zip(self.functions, left, right)
        )

    def finalize(self, state: Tuple) -> Tuple:
        return tuple(
            fn.finalize(s) for fn, s in zip(self.functions, state)
        )

    def state_size(self, state: Tuple) -> int:
        return sum(
            fn.state_size(s) for fn, s in zip(self.functions, state)
        )

    def __repr__(self) -> str:
        return f"Multi({', '.join(map(repr, self.functions))})"


_REGISTRY: Dict[str, AggregateFunction] = {}


def register(fn: AggregateFunction) -> AggregateFunction:
    """Add ``fn`` to the by-name registry used by the CLI-style harnesses."""
    _REGISTRY[fn.name] = fn
    return fn


def get_aggregate(name: str) -> AggregateFunction:
    """Look up a registered aggregate by name.

    >>> get_aggregate("count").name
    'count'
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown aggregate {name!r}; known: {known}") from None


def registered_aggregates() -> Dict[str, AggregateFunction]:
    """A copy of the registry (name -> instance)."""
    return dict(_REGISTRY)


for _fn in (
    Count(),
    Sum(),
    Min(),
    Max(),
    Average(),
    Variance(),
    TopKFrequent(),
    Median(),
    CountDistinct(),
):
    register(_fn)
