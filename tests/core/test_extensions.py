"""Extensions beyond the paper: iceberg cubes and multi-aggregate passes."""

import pytest

from repro.aggregates import (
    AggregateKind,
    Average,
    Count,
    Median,
    Multi,
    Sum,
)
from repro.core import SPCube
from repro.cubing import sequential_cube
from repro.mapreduce import ClusterConfig

from ..conftest import iceberg_cube, make_random_relation


@pytest.fixture
def cluster():
    return ClusterConfig(num_machines=5)


@pytest.fixture
def relation():
    return make_random_relation(
        1000, num_dimensions=3, cardinality=12, seed=55, skew_fraction=0.25
    )


class TestIcebergSPCube:
    @pytest.mark.parametrize("support", [2, 5, 25, 200])
    def test_matches_iceberg_buc(self, cluster, relation, support):
        run = SPCube(cluster, min_group_size=support).compute(relation)
        assert run.cube == iceberg_cube(relation, Count(), support)

    def test_support_one_is_full_cube(self, cluster, relation):
        run = SPCube(cluster, min_group_size=1).compute(relation)
        assert run.cube == sequential_cube(relation)

    def test_iceberg_with_sum(self, cluster, relation):
        run = SPCube(cluster, Sum(), min_group_size=4).compute(relation)
        assert run.cube == iceberg_cube(relation, Sum(), 4)

    def test_iceberg_with_exact_sketch(self, cluster, relation):
        run = SPCube(
            cluster, min_group_size=10, use_exact_sketch=True
        ).compute(relation)
        assert run.cube == iceberg_cube(relation, Count(), 10)

    def test_huge_support_keeps_only_apex(self, cluster, relation):
        run = SPCube(cluster, min_group_size=len(relation)).compute(relation)
        assert run.cube.num_groups == 1
        assert (0, ()) in run.cube

    def test_iceberg_shrinks_output(self, cluster, relation):
        full = SPCube(cluster).compute(relation)
        iceberg = SPCube(cluster, min_group_size=5).compute(relation)
        assert 0 < iceberg.cube.num_groups < full.cube.num_groups

    def test_invalid_support(self, cluster):
        with pytest.raises(ValueError):
            SPCube(cluster, min_group_size=0)


class TestMultiAggregate:
    def test_three_aggregates_one_pass(self, cluster, relation):
        fn = Multi((Count(), Sum(), Average()))
        run = SPCube(cluster, fn).compute(relation)
        counts = sequential_cube(relation, Count())
        sums = sequential_cube(relation, Sum())
        avgs = sequential_cube(relation, Average())
        for (mask, values), (count, total, avg) in run.cube.items():
            assert count == counts.value(mask, values)
            assert total == sums.value(mask, values)
            assert avg == pytest.approx(avgs.value(mask, values))

    def test_kind_is_weakest_member(self):
        assert Multi((Count(), Sum())).kind is AggregateKind.DISTRIBUTIVE
        assert Multi((Count(), Average())).kind is AggregateKind.ALGEBRAIC
        assert Multi((Count(), Median())).kind is AggregateKind.HOLISTIC

    def test_holistic_member_rejected_by_spcube(self, cluster):
        from repro.aggregates import UnsupportedAggregateError

        with pytest.raises(UnsupportedAggregateError):
            SPCube(cluster, Multi((Count(), Median())))

    def test_name_lists_members(self):
        assert Multi((Count(), Sum())).name == "multi(count,sum)"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Multi(())

    def test_works_with_iceberg(self, cluster, relation):
        fn = Multi((Count(), Sum()))
        run = SPCube(cluster, fn, min_group_size=5).compute(relation)
        oracle = iceberg_cube(relation, fn, 5)
        assert run.cube == oracle
