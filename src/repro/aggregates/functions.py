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
(their state is the full multiset, merged by concatenation), and the
algorithms refuse them by ``kind`` unless asked — matching the paper's
discussion that efficient holistic support is future work.

Every function is expressed through the same four-operation protocol::

    state = fn.create()            # identity element
    state = fn.add(state, value)   # fold one measure value in
    state = fn.merge(s1, s2)       # combine two partial states
    result = fn.finalize(state)    # extract the aggregate value

``merge`` must be associative and commutative with ``create()`` as the
identity — the property tests in ``tests/aggregates`` check exactly this,
because the correctness of every distributed algorithm in this repository
rests on it.  ``fold(state, values)`` is the bulk form of ``add`` and
``fold_groups`` one ``finalize(fold(create(), group))`` per group; every
kernel that aggregates a batch goes through them.

Sums are exact (:func:`_sum`), so the property holds for float measures
too: every order and grouping of the additions gives one state, which
finalises to the correctly rounded sum.
"""

from __future__ import annotations

import enum
import heapq
import math
import operator
from abc import ABC, abstractmethod
from collections import Counter
from functools import reduce
from itertools import chain
from typing import Any, Dict, Iterable, List, Sequence, Tuple


class AggregateKind(enum.Enum):
    """Gray et al.'s aggregate taxonomy, as used in paper Section 7."""

    DISTRIBUTIVE = "distributive"
    ALGEBRAIC = "algebraic"
    HOLISTIC = "holistic"


class UnsupportedAggregateError(RuntimeError):
    """Raised when an algorithm cannot honour an aggregate's requirements."""


class _Fixed(int):
    """An exact sum with a float term, in units of ``2 ** -1074``: every
    finite double is a whole number of them."""

    __slots__ = ()


_SCALE = 1074


def _sum(total, terms: Sequence):
    """``total`` (a sum state) plus ``terms`` (measures or sum states),
    exactly: one state for every order and grouping.  It stays an int
    while every term is one, becomes a :class:`_Fixed` with a float term,
    and is the IEEE sum of the non-finite terms once there is one."""
    if type(total) is int:
        result = sum(terms, total)
        if type(result) is int:
            return result
    terms = [total, *terms]
    try:
        return _Fixed(sum(map(_units, terms)))
    except (OverflowError, ValueError):  # an infinity or a NaN
        return sum(t for t in terms if t != t or abs(t) == math.inf)


def _units(term) -> int:
    """An int, a finite float or a :class:`_Fixed` in units of 2**-1074."""
    if type(term) is _Fixed:
        return term
    numerator, denominator = term.as_integer_ratio()
    return numerator << _SCALE + 1 - denominator.bit_length()


def _merge(left, right):
    """Two sum states added, never as ``int + _Fixed`` (an ``int``)."""
    return _sum(right, (left,)) if type(left) is int else _sum(left, (right,))


def _divide(total, n: int):
    """A sum state over ``n``, correctly rounded (±inf past the range)."""
    if type(total) is not _Fixed:
        return total / n
    try:
        return total / (n << _SCALE)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


class AggregateFunction(ABC):
    """Protocol every aggregate implements; see module docstring."""

    #: Short name used in registries and reports.
    name: str = "abstract"
    #: Taxonomy class (Section 7).
    kind: AggregateKind = AggregateKind.DISTRIBUTIVE

    @abstractmethod
    def create(self) -> Any:
        """The identity state (aggregate of the empty multiset)."""

    @abstractmethod
    def add(self, state: Any, value) -> Any:
        """Fold one measure value into ``state``; returns the new state."""

    def fold(self, state: Any, values: Sequence) -> Any:
        """Fold ``values`` into ``state`` in order: ``add`` for each."""
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
        if type(state) is int and type(value) is int:  # the oracle's hot path
            return state + value
        return _sum(state, (value,))

    def fold(self, state, values: Sequence):
        return _sum(state, values)

    def merge(self, left, right):
        return _merge(left, right)

    def finalize(self, state):
        return _divide(state, 1) if type(state) is _Fixed else state


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
        if type(total) is int and type(value) is int:
            return (total + value, count + 1)
        return (_sum(total, (value,)), count + 1)

    def fold(self, state, values: Sequence):
        total, count = state
        return (_sum(total, values), count + len(values))

    def merge(self, left, right):
        return (_merge(left[0], right[0]), left[1] + right[1])

    def finalize(self, state):
        total, count = state
        return None if count == 0 else _divide(total, count)


class Variance(AggregateFunction):
    """Population variance. Algebraic: state is ``(n, sum, sum_sq)``."""

    name = "variance"
    kind = AggregateKind.ALGEBRAIC

    def create(self) -> Tuple[int, int, int]:
        return (0, 0, 0)

    def add(self, state, value):
        n, total, total_sq = state
        if type(total) is int and type(value) is int:
            return (n + 1, total + value, total_sq + value * value)
        return (n + 1, _sum(total, (value,)), _sum(total_sq, (value * value,)))

    def fold(self, state, values: Sequence):
        n, total, total_sq = state
        squares = list(map(operator.mul, values, values))
        return (n + len(values), _sum(total, values), _sum(total_sq, squares))

    def merge(self, left, right):
        return (
            left[0] + right[0],
            _merge(left[1], right[1]),
            _merge(left[2], right[2]),
        )

    def finalize(self, state):
        n, total, total_sq = state
        if n == 0:
            return None
        mean = _divide(total, n)
        return max(_divide(total_sq, n) - mean * mean, 0.0)


class TopKFrequent(AggregateFunction):
    """``top-k most frequent`` measure values — the paper's holistic example.

    The exact answer needs the full value histogram, so the partial state is
    a :class:`collections.Counter`; merging concatenates histograms.  The
    state is *not* compact, which is precisely why holistic functions strain
    map-side partial aggregation (Section 7).
    """

    name = "top_k"
    kind = AggregateKind.HOLISTIC

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

    def __repr__(self) -> str:
        return f"TopKFrequent(k={self.k})"


class Median(AggregateFunction):
    """Exact median — holistic; state is the sorted list of values."""

    name = "median"
    kind = AggregateKind.HOLISTIC

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


class CountDistinct(AggregateFunction):
    """Exact ``COUNT(DISTINCT B)`` — holistic; state is the value set."""

    name = "count_distinct"
    kind = AggregateKind.HOLISTIC

    def create(self) -> frozenset:
        return frozenset()

    def add(self, state: frozenset, value) -> frozenset:
        return state | {value}

    def merge(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def finalize(self, state: frozenset) -> int:
        return len(state)


class Multi(AggregateFunction):
    """Several aggregates evaluated in one pass over the same cube.

    The state is the tuple of member states and the result the tuple of
    member results, so one SP-Cube run can answer e.g. ``count``, ``sum``
    and ``avg`` simultaneously — the natural companion to the SP-Sketch
    being aggregate-independent (Section 4).

    The combined function is as strong as its weakest member: it is
    holistic as soon as any member is.
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


def check_spcube_support(
    fn: AggregateFunction, allow_holistic: bool = False
) -> None:
    """Raise unless SP-Cube can run ``fn`` efficiently.

    Paper Section 7: SP-Cube supports every distributive and algebraic
    aggregate; arbitrary holistic ones are future work.
    ``allow_holistic=True`` opts into correctness-preserving but
    non-compressing holistic execution (states are full multisets); this is
    useful for testing and small data, and mirrors the paper's note that the
    algorithm stays *correct* — only the skew-compression guarantee is lost.
    """
    if fn.kind is not AggregateKind.HOLISTIC or allow_holistic:
        return
    raise UnsupportedAggregateError(
        f"aggregate {fn.name!r} is {fn.kind.value}; SP-Cube's map-side "
        "partial aggregation of skewed groups needs a compact mergeable "
        "state (pass allow_holistic=True to run it anyway)"
    )


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
