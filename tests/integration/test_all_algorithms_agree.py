"""Integration: every engine produces the identical cube on every input.

This is the repository's master correctness property: the sequential
oracle, BUC, SP-Cube (both sketch modes and all ablations), and all
three distributed baselines must agree bit-for-bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Average, Count, Sum
from repro.baselines import HiveCube, MRCube, NaiveCube
from repro.core import SPCube
from repro.cubing import buc_cube, sequential_cube
from repro.datagen import gen_binomial, gen_zipf, wikipedia_traffic
from repro.mapreduce import ClusterConfig
from repro.relation import Relation, Schema

from ..conftest import make_random_relation


def all_engines(cluster, fn):
    return {
        "spcube": SPCube(cluster, fn),
        "spcube-exact": SPCube(cluster, fn, use_exact_sketch=True),
        "naive": NaiveCube(cluster, fn),
        "naive-combiner": NaiveCube(cluster, fn, use_combiner=True),
        "mrcube": MRCube(cluster, fn),
        "hive": HiveCube(cluster, fn),
    }


@pytest.mark.parametrize(
    "fn", [Count(), Sum(), Average()], ids=lambda f: f.name
)
@pytest.mark.parametrize("skew", [0.0, 0.5, 1.0])
def test_engines_agree_on_random_data(fn, skew):
    cluster = ClusterConfig(num_machines=4)
    rel = make_random_relation(
        600, num_dimensions=3, cardinality=25, seed=99, skew_fraction=skew
    )
    oracle = sequential_cube(rel, fn)
    assert buc_cube(rel, fn) == oracle
    for name, engine in all_engines(cluster, fn).items():
        run = engine.compute(rel)
        assert run.cube == oracle, (name, run.cube.diff(oracle, 3))


@pytest.mark.parametrize(
    "dataset",
    [
        gen_binomial(700, 0.4, seed=1),
        gen_zipf(700, seed=1),
        wikipedia_traffic(700, seed=1),
    ],
    ids=["binomial", "zipf", "wikipedia"],
)
def test_engines_agree_on_paper_workloads(dataset):
    cluster = ClusterConfig(num_machines=5)
    oracle = sequential_cube(dataset)
    for name, engine in all_engines(cluster, Count()).items():
        run = engine.compute(dataset)
        assert run.cube == oracle, name


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=60,
    ),
    machines=st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_property_spcube_equals_oracle(rows, machines):
    """SP-Cube == oracle for arbitrary small relations and cluster sizes.

    Tiny cardinalities maximize group collisions and skew-threshold edge
    cases; small machine counts exercise degenerate partitionings.
    """
    rel = Relation(Schema(["a", "b", "c"], "m"), rows, validate=False)
    cluster = ClusterConfig(num_machines=machines)
    run = SPCube(cluster).compute(rel)
    assert run.cube == sequential_cube(rel)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(1, 3)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=20, deadline=None)
def test_property_baselines_equal_oracle(rows):
    rel = Relation(Schema(["a", "b"], "m"), rows, validate=False)
    cluster = ClusterConfig(num_machines=3)
    oracle = sequential_cube(rel)
    for engine in (NaiveCube(cluster), MRCube(cluster), HiveCube(cluster)):
        assert engine.compute(rel).cube == oracle
