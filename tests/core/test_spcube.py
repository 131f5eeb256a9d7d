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
from repro.core import SPCube, spcube
from repro.cubing import sequential_cube
from repro.mapreduce import Block, ClusterConfig, estimate_bytes, pair_bytes
from repro.relation import Relation, Schema

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

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_none_next_to_strings(self, cluster, exact):
        """``<`` cannot order None and a string: the sketch and the range
        partitions take the sort-token order."""
        rows = [(None, "a", 1), (None, None, 2.5), ("b", None, 3)] * 4
        rel = Relation(Schema(["a", "b"], "m"), rows)
        run = SPCube(cluster, use_exact_sketch=exact).compute(rel)
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

    def test_round_one_charges_the_sketch_it_ships(
        self, cluster, skewed_relation
    ):
        run = SPCube(cluster).compute(skewed_relation)
        task = run.metrics.jobs[0].reduce_tasks[0]
        # One pair: the sample run's key 0, then the sketch at its own size.
        assert task.records_out == 1
        assert task.bytes_out == (
            estimate_bytes(0) + run.sketch.serialized_bytes()
        )

    def test_skew_reducer_never_overloaded(self, cluster, skewed_relation):
        """Reducer 0 receives only partial states: at most k per group."""
        run = SPCube(cluster).compute(skewed_relation)
        cube_round = run.metrics.jobs[-1]
        skew_task = cube_round.reduce_tasks[0]
        assert skew_task.peak_group_records <= cluster.num_machines


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


class TestRecordFormat:
    """Round 2 ships ``(mask, values)`` keys, the baselines' shape, and a
    skewed group's partial as its bare state; reducer 0 receives exactly
    the groups the sketch flags."""

    @staticmethod
    def shuffled(monkeypatch, cluster, relation, fn=None, **knobs):
        """The run, and the runs each round-2 reduce task received."""
        received = {}

        class Recording(spcube._CubeReducer):
            def reduce_runs(self, keys, runs):
                received[self.context.machine] = dict(runs)
                return super().reduce_runs(keys, runs)

        monkeypatch.setattr(spcube, "_CubeReducer", Recording)
        run = SPCube(cluster, fn, **knobs).compute(relation)
        return run, received

    def test_every_key_is_mask_and_values(
        self, monkeypatch, cluster, skewed_relation
    ):
        _run, received = self.shuffled(monkeypatch, cluster, skewed_relation)
        keys = [key for runs in received.values() for key in runs]
        assert keys
        for mask, values in keys:
            assert type(mask) is int and type(values) is tuple
            assert len(values) == bin(mask).count("1")

    def test_reducer_zero_receives_exactly_the_flagged_groups(
        self, monkeypatch, cluster, skewed_relation
    ):
        run, received = self.shuffled(monkeypatch, cluster, skewed_relation)
        flagged = {
            (mask, values) for mask, values, _ in run.sketch.skewed_groups()
        }
        assert flagged and set(received[0]) == flagged
        for reducer, runs in received.items():
            assert reducer == 0 or not flagged & set(runs)
        records = sum(map(len, received[0].values()))
        assert run.metrics.jobs[-1].reduce_tasks[0].records_in == records

    def test_partials_are_bare_states(
        self, monkeypatch, cluster, skewed_relation
    ):
        _run, received = self.shuffled(
            monkeypatch, cluster, skewed_relation, Sum()
        )
        states = [state for run in received[0].values() for state in run]
        assert states and all(type(state) is int for state in states)

    def test_an_iceberg_partial_carries_its_count(
        self, monkeypatch, cluster, skewed_relation
    ):
        run, received = self.shuffled(
            monkeypatch, cluster, skewed_relation, Sum(), min_group_size=2
        )
        entries = [entry for run in received[0].values() for entry in run]
        assert entries
        for count, state in entries:
            assert type(count) is int and count >= 1 and type(state) is int
        assert run.cube == iceberg_cube(skewed_relation, Sum(), 2)

    def test_without_partial_aggregation_reducer_zero_gets_nothing(
        self, cluster, skewed_relation
    ):
        run = SPCube(cluster, map_partial_aggregation=False).compute(
            skewed_relation
        )
        assert run.sketch.num_skewed > 0
        assert run.metrics.jobs[-1].reduce_tasks[0].records_in == 0


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
