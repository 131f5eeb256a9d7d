"""Aggregate functions: semantics of each implementation."""

import math

import pytest

from repro.aggregates import (
    AggregateKind,
    Average,
    Count,
    CountDistinct,
    Max,
    Median,
    Min,
    Sum,
    TopKFrequent,
    Variance,
    get_aggregate,
    registered_aggregates,
)


def fold(fn, values):
    state = fn.create()
    for value in values:
        state = fn.add(state, value)
    return fn.finalize(state)


class TestCount:
    def test_empty(self):
        assert fold(Count(), []) == 0

    def test_counts_values_not_sums(self):
        assert fold(Count(), [5, 5, 5]) == 3

    def test_kind(self):
        assert Count().kind is AggregateKind.DISTRIBUTIVE


class TestSum:
    def test_empty_is_zero(self):
        assert fold(Sum(), []) == 0

    def test_sum(self):
        assert fold(Sum(), [1, 2, 3.5]) == 6.5


class TestMinMax:
    def test_min(self):
        assert fold(Min(), [3, 1, 2]) == 1

    def test_max(self):
        assert fold(Max(), [3, 1, 2]) == 3

    def test_empty_min_is_none(self):
        assert fold(Min(), []) is None

    def test_empty_max_is_none(self):
        assert fold(Max(), []) is None

    def test_min_merge_identity(self):
        fn = Min()
        assert fn.merge(fn.create(), 5) == 5


class TestAverage:
    def test_average(self):
        assert fold(Average(), [1, 2, 3]) == 2.0

    def test_empty_is_none(self):
        assert fold(Average(), []) is None

    def test_merge_combines_sums_and_counts(self):
        fn = Average()
        left = fn.add(fn.create(), 10)
        right = fn.add(fn.add(fn.create(), 2), 3)
        assert fn.finalize(fn.merge(left, right)) == 5.0

    def test_kind(self):
        assert Average().kind is AggregateKind.ALGEBRAIC


class TestVariance:
    def test_constant_values_zero_variance(self):
        assert fold(Variance(), [4, 4, 4]) == 0.0

    def test_known_variance(self):
        assert fold(Variance(), [1, 3]) == pytest.approx(1.0)

    def test_empty_is_none(self):
        assert fold(Variance(), []) is None

    def test_never_negative(self):
        # Floating cancellation could go slightly negative; clamped.
        values = [1e9 + i * 1e-3 for i in range(10)]
        assert fold(Variance(), values) >= 0.0


class TestTopK:
    def test_most_frequent(self):
        result = fold(TopKFrequent(2), [1, 1, 1, 2, 2, 3])
        assert result == (1, 2)

    def test_tie_broken_by_value(self):
        result = fold(TopKFrequent(1), [2, 2, 1, 1])
        assert result == (1,)

    def test_k_larger_than_distinct(self):
        assert fold(TopKFrequent(5), [1, 2]) == (1, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKFrequent(0)

    def test_is_holistic(self):
        assert TopKFrequent().kind is AggregateKind.HOLISTIC

    def test_add_does_not_mutate_input_state(self):
        fn = TopKFrequent()
        state = fn.add(fn.create(), 1)
        fn.add(state, 2)
        assert dict(state) == {1: 1}


class TestMedian:
    def test_odd(self):
        assert fold(Median(), [3, 1, 2]) == 2

    def test_even_averages(self):
        assert fold(Median(), [1, 2, 3, 4]) == 2.5

    def test_empty_is_none(self):
        assert fold(Median(), []) is None


class TestCountDistinct:
    def test_distinct(self):
        assert fold(CountDistinct(), [1, 1, 2, 3, 3]) == 3

    def test_empty(self):
        assert fold(CountDistinct(), []) == 0

    def test_merge_unions(self):
        fn = CountDistinct()
        left = fn.add(fn.create(), 1)
        right = fn.add(fn.create(), 2)
        assert fn.finalize(fn.merge(left, right)) == 2


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_aggregate("count").name == "count"
        assert get_aggregate("avg").name == "avg"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown aggregate"):
            get_aggregate("nope")

    def test_registry_copy_is_isolated(self):
        snapshot = registered_aggregates()
        snapshot["bogus"] = None
        assert "bogus" not in registered_aggregates()

    def test_all_expected_names_registered(self):
        names = set(registered_aggregates())
        assert {"count", "sum", "min", "max", "avg", "variance",
                "top_k", "median", "count_distinct"} <= names

    def test_min_identity_is_infinite(self):
        assert Min().create() == math.inf
