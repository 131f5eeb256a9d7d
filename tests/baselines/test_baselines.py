"""Baseline algorithms: correctness and algorithm-specific behaviours."""

import pytest

from repro.aggregates import Average, Count, Sum, TopKFrequent
from repro.baselines import HiveCube, MRCube, NaiveCube
from repro.baselines.hive import DUPLICATE_ROW_DOMINANCE
from repro.cubing import sequential_cube
from repro.mapreduce import ClusterConfig

from ..conftest import make_random_relation


@pytest.fixture
def cluster():
    return ClusterConfig(num_machines=5)


@pytest.fixture
def skewed_relation():
    return make_random_relation(
        1200, num_dimensions=3, cardinality=40, seed=21, skew_fraction=0.3
    )


ALGORITHMS = [NaiveCube, MRCube, HiveCube]


class TestCorrectness:
    @pytest.mark.parametrize("algo_cls", ALGORITHMS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "fn", [Count(), Sum(), Average()], ids=lambda f: f.name
    )
    def test_matches_oracle(self, cluster, skewed_relation, algo_cls, fn):
        run = algo_cls(cluster, fn).compute(skewed_relation)
        assert run.cube == sequential_cube(skewed_relation, fn)

    @pytest.mark.parametrize("algo_cls", ALGORITHMS, ids=lambda c: c.__name__)
    def test_uniform_data(self, cluster, algo_cls):
        rel = make_random_relation(500, cardinality=300, seed=22)
        run = algo_cls(cluster).compute(rel)
        assert run.cube == sequential_cube(rel)

    def test_naive_supports_holistic(self, cluster):
        rel = make_random_relation(300, seed=23)
        fn = TopKFrequent(2)
        run = NaiveCube(cluster, fn).compute(rel)
        assert run.cube == sequential_cube(rel, fn)


class TestNaive:
    def test_emits_2d_pairs_per_row(self, cluster):
        rel = make_random_relation(100, num_dimensions=3, seed=24)
        run = NaiveCube(cluster).compute(rel)
        assert run.metrics.intermediate_records == 100 * 8

    def test_combiner_shrinks_traffic_on_skew(self, cluster):
        rel = make_random_relation(500, seed=25, skew_fraction=0.6)
        plain = NaiveCube(cluster).compute(rel)
        combined = NaiveCube(cluster, use_combiner=True).compute(rel)
        assert (
            combined.metrics.intermediate_records
            < plain.metrics.intermediate_records
        )
        assert combined.cube == plain.cube

    def test_single_round(self, cluster, skewed_relation):
        run = NaiveCube(cluster).compute(skewed_relation)
        assert len(run.metrics.jobs) == 1


class TestMRCube:
    def test_three_rounds_with_skew(self, cluster, skewed_relation):
        run = MRCube(cluster).compute(skewed_relation)
        names = [job.name for job in run.metrics.jobs]
        assert names[0] == "mrcube-sample"
        assert names[1] == "mrcube-materialize"
        # The planted skew makes at least the apex cuboid unfriendly.
        assert run.metrics.extras["unfriendly_cuboids"] >= 1
        assert names[-1] == "mrcube-postagg"

    def test_cuboid_granularity_decision(self, cluster):
        """A single giant group marks its whole cuboid unfriendly —
        exactly the weakness the paper contrasts SP-Cube against."""
        rel = make_random_relation(
            1200, cardinality=40, seed=26, skew_fraction=0.6
        )
        run = MRCube(cluster).compute(rel)
        assert run.metrics.extras["unfriendly_cuboids"] >= 1
        assert run.cube == sequential_cube(rel)

    def test_two_rounds_without_skew(self):
        # Large memory: nothing is unfriendly, round 3 is skipped.
        cluster = ClusterConfig(num_machines=5, memory_records=10_000)
        rel = make_random_relation(400, cardinality=500, seed=27)
        run = MRCube(cluster).compute(rel)
        assert [job.name for job in run.metrics.jobs] == [
            "mrcube-sample",
            "mrcube-materialize",
        ]


class TestHive:
    def test_single_round(self, cluster, skewed_relation):
        run = HiveCube(cluster).compute(skewed_relation)
        assert len(run.metrics.jobs) == 1

    def test_map_aggregation_disabled_on_distinct_data(self, cluster):
        """High-cardinality data defeats the min-reduction probe, so the
        map output approaches raw n * 2^d records."""
        rel = make_random_relation(1000, cardinality=10_000, seed=28)
        run = HiveCube(cluster).compute(rel)
        assert run.metrics.intermediate_records > 0.8 * 1000 * 8

    def test_map_aggregation_compresses_low_cardinality(self, cluster):
        rel = make_random_relation(1000, cardinality=2, seed=29)
        run = HiveCube(cluster).compute(rel)
        assert run.metrics.intermediate_records < 0.5 * 1000 * 8

    def test_stuck_on_dominant_duplicate_rows(self):
        """The calibrated failure model: identical full-width rows holding
        more than a third of the input mark the run stuck."""
        cluster = ClusterConfig(num_machines=5, memory_records=30)
        rel = make_random_relation(
            1000, cardinality=10_000, seed=31, skew_fraction=0.6
        )
        run = HiveCube(cluster).compute(rel)
        assert run.metrics.failed
        # The cube itself is still produced (the flag models wall-clock
        # death, not wrong answers).
        assert run.cube == sequential_cube(rel)

    def test_not_stuck_below_dominance(self):
        cluster = ClusterConfig(num_machines=5, memory_records=30)
        rel = make_random_relation(
            1000, cardinality=10_000, seed=32,
            skew_fraction=DUPLICATE_ROW_DOMINANCE - 0.15,
        )
        run = HiveCube(cluster).compute(rel)
        assert not run.metrics.failed
