"""Aggregate support policy (Section 7)."""

import pytest

from repro.aggregates import (
    Average,
    Count,
    Median,
    Multi,
    Sum,
    TopKFrequent,
    UnsupportedAggregateError,
    Variance,
    check_spcube_support,
)


class TestCheckSPCubeSupport:
    def test_passes_for_count(self):
        check_spcube_support(Count())

    @pytest.mark.parametrize(
        "fn", [Sum(), Average(), Variance(), Multi((Count(), Average()))],
        ids=lambda fn: fn.name,
    )
    def test_passes_for_distributive_and_algebraic(self, fn):
        check_spcube_support(fn)

    def test_raises_for_holistic(self):
        with pytest.raises(UnsupportedAggregateError, match="holistic"):
            check_spcube_support(TopKFrequent())

    def test_allow_holistic_opt_in(self):
        check_spcube_support(TopKFrequent(), allow_holistic=True)

    def test_error_names_the_aggregate(self):
        with pytest.raises(UnsupportedAggregateError, match="median"):
            check_spcube_support(Median())
