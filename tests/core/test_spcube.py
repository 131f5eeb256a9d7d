"""SP-Cube end-to-end: correctness, knobs, metrics."""

import pytest

from repro.aggregates import (
    Average,
    Count,
    Max,
    Min,
    Sum,
    TopKFrequent,
    UnsupportedAggregateError,
    Variance,
)
from repro.core import SKETCH_PATH, SPCube, spcube
from repro.cubing import sequential_cube
from repro.mapreduce import (
    Block,
    ClusterConfig,
    DistributedFileSystem,
    pair_bytes,
)

from ..conftest import iceberg_cube, make_random_relation


@pytest.fixture
def cluster():
    return ClusterConfig(num_machines=5)


@pytest.fixture
def skewed_relation():
    return make_random_relation(
        1500, num_dimensions=3, cardinality=40, seed=13, skew_fraction=0.3
    )


AGGREGATES = [Count(), Sum(), Min(), Max(), Average(), Variance()]


class TestCorrectness:
    @pytest.mark.parametrize("fn", AGGREGATES, ids=lambda f: f.name)
    def test_matches_oracle_sampled_sketch(self, cluster, skewed_relation, fn):
        run = SPCube(cluster, fn).compute(skewed_relation)
        assert run.cube == sequential_cube(skewed_relation, fn)

    @pytest.mark.parametrize("fn", [Count(), Average()], ids=lambda f: f.name)
    def test_matches_oracle_exact_sketch(self, cluster, skewed_relation, fn):
        run = SPCube(cluster, fn, use_exact_sketch=True).compute(
            skewed_relation
        )
        assert run.cube == sequential_cube(skewed_relation, fn)

    def test_no_skew_data(self, cluster):
        rel = make_random_relation(800, cardinality=500, seed=3)
        run = SPCube(cluster).compute(rel)
        assert run.cube == sequential_cube(rel)

    def test_all_rows_identical(self, cluster):
        rel = make_random_relation(400, seed=5, skew_fraction=1.0)
        run = SPCube(cluster).compute(rel)
        assert run.cube == sequential_cube(rel)
        # The whole lattice of the single pattern is skew-absorbed.
        assert run.cube.num_groups == 8

    def test_tiny_relation(self, cluster):
        rel = make_random_relation(5, seed=6)
        run = SPCube(cluster).compute(rel)
        assert run.cube == sequential_cube(rel)

    def test_single_machine(self):
        rel = make_random_relation(200, seed=7, skew_fraction=0.2)
        run = SPCube(ClusterConfig(num_machines=1)).compute(rel)
        assert run.cube == sequential_cube(rel)


class TestAblations:
    def test_no_map_partial_aggregation_still_correct(
        self, cluster, skewed_relation
    ):
        run = SPCube(
            cluster, map_partial_aggregation=False
        ).compute(skewed_relation)
        assert run.cube == sequential_cube(skewed_relation)

    def test_no_ancestor_covering_still_correct(
        self, cluster, skewed_relation
    ):
        run = SPCube(cluster, ancestor_covering=False).compute(
            skewed_relation
        )
        assert run.cube == sequential_cube(skewed_relation)

    def test_hash_partitioning_still_correct(self, cluster, skewed_relation):
        run = SPCube(cluster, range_partitioning=False).compute(
            skewed_relation
        )
        assert run.cube == sequential_cube(skewed_relation)

    def test_covering_reduces_traffic(self, cluster, skewed_relation):
        covered = SPCube(cluster).compute(skewed_relation)
        uncovered = SPCube(cluster, ancestor_covering=False).compute(
            skewed_relation
        )
        assert (
            covered.metrics.intermediate_records
            < uncovered.metrics.intermediate_records
        )


class TestAggregatePolicy:
    def test_holistic_rejected_by_default(self, cluster):
        with pytest.raises(UnsupportedAggregateError):
            SPCube(cluster, TopKFrequent())

    def test_holistic_allowed_explicitly(self, cluster):
        rel = make_random_relation(300, seed=8, skew_fraction=0.3)
        fn = TopKFrequent(2)
        run = SPCube(cluster, fn, allow_holistic=True).compute(rel)
        assert run.cube == sequential_cube(rel, fn)


class TestRoundsAndMetrics:
    def test_two_rounds(self, cluster, skewed_relation):
        run = SPCube(cluster).compute(skewed_relation)
        assert [job.name for job in run.metrics.jobs] == [
            "sp-sketch",
            "sp-cube",
        ]

    def test_exact_sketch_skips_round_one(self, cluster, skewed_relation):
        run = SPCube(cluster, use_exact_sketch=True).compute(skewed_relation)
        assert [job.name for job in run.metrics.jobs] == ["sp-cube"]
        assert run.metrics.extras["sketch_mode"] == "exact"

    def test_extras_recorded(self, cluster, skewed_relation):
        run = SPCube(cluster).compute(skewed_relation)
        extras = run.metrics.extras
        assert extras["sketch_bytes"] > 0
        assert extras["sample_size"] >= 0
        assert 0 < extras["alpha"] <= 1
        assert extras["beta"] > 0
        assert "num_skewed_groups" in extras

    def test_sketch_returned(self, cluster, skewed_relation):
        run = SPCube(cluster).compute(skewed_relation)
        assert run.sketch is not None
        assert run.sketch.num_dimensions == 3

    def test_output_groups_counted(self, cluster, skewed_relation):
        run = SPCube(cluster).compute(skewed_relation)
        assert run.metrics.output_groups == run.cube.num_groups

    def test_sketch_size_much_smaller_than_input(self, cluster):
        rel = make_random_relation(2000, seed=9, skew_fraction=0.2)
        run = SPCube(cluster).compute(rel)
        from repro.mapreduce import relation_bytes

        _count, input_bytes = relation_bytes(rel.rows)
        assert run.metrics.extras["sketch_bytes"] < input_bytes / 20

    def test_skew_reducer_never_overloaded(self, cluster, skewed_relation):
        """Reducer 0 receives only partial states: at most k per group."""
        run = SPCube(cluster).compute(skewed_relation)
        cube_round = run.metrics.jobs[-1]
        skew_task = cube_round.reduce_tasks[0]
        assert skew_task.peak_group_records <= cluster.num_machines


class TestDFSIntegration:
    def test_sketch_published(self, cluster, skewed_relation):
        dfs = DistributedFileSystem()
        SPCube(cluster, dfs=dfs).compute(skewed_relation)
        assert dfs.exists(SKETCH_PATH)

    def test_cube_written_per_cuboid(self, cluster, skewed_relation):
        dfs = DistributedFileSystem()
        run = SPCube(cluster, dfs=dfs).compute(skewed_relation)
        cuboid_files = [
            path for path in sorted(dfs._files) if path.startswith("spcube/cube/")
        ]
        assert len(cuboid_files) == 8
        # A cuboid's file is the blocks its reducers wrote: columns, not
        # one record per group.
        for path in cuboid_files:
            mask = int(path.rsplit("-", 1)[1])
            written = {}
            for block in dfs.read(path):
                assert block.mask == mask
                written.update(zip(block.groups, block.values))
            assert written == run.cube.cuboid(mask)


class TestBlockOutput:
    """Round 2 hands on one block per (reducer, cuboid) — never a pair,
    node tuple or dict key per c-group — and is charged as the pairs."""

    @pytest.mark.parametrize("fn", [Count(), Average()], ids=lambda f: f.name)
    @pytest.mark.parametrize("min_size", [1, 3])
    def test_output_is_blocks_and_counts_are_the_pairs(
        self, cluster, skewed_relation, monkeypatch, fn, min_size
    ):
        results = []

        class Recording(spcube.RoundRunner):
            def run(self, *args):
                results.append(super().run(*args))
                return results[-1]

        monkeypatch.setattr(spcube, "RoundRunner", Recording)
        run = SPCube(cluster, fn, min_group_size=min_size).compute(
            skewed_relation
        )
        result = results[-1]
        k, d = cluster.num_machines, skewed_relation.schema.num_dimensions
        assert result.metrics.name == "sp-cube"
        assert all(type(item) is Block for item in result.output)
        assert len(result.output) <= (k + 1) << d
        assert run.cube.num_groups > 5 * len(result.output)
        tasks = result.metrics.reduce_tasks
        assert sum(task.records_out for task in tasks) == run.cube.num_groups
        for task, blocks in zip(tasks, result.reducer_outputs):
            pairs = [pair for block in blocks for pair in block.pairs()]
            assert task.records_out == len(pairs)
            assert task.bytes_out == sum(pair_bytes(*p) for p in pairs)
        assert run.cube == iceberg_cube(skewed_relation, fn, min_size)


class TestDeterminism:
    def test_same_seed_same_metrics(self, skewed_relation):
        cluster = ClusterConfig(num_machines=5, seed=42)
        run1 = SPCube(cluster).compute(skewed_relation)
        run2 = SPCube(cluster).compute(skewed_relation)
        assert run1.cube == run2.cube
        assert (
            run1.metrics.intermediate_bytes
            == run2.metrics.intermediate_bytes
        )

    def test_different_seed_same_cube(self, skewed_relation):
        run1 = SPCube(ClusterConfig(num_machines=5, seed=1)).compute(
            skewed_relation
        )
        run2 = SPCube(ClusterConfig(num_machines=5, seed=2)).compute(
            skewed_relation
        )
        assert run1.cube == run2.cube
