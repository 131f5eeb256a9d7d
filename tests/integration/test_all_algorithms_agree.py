"""Integration: every engine produces the identical cube on every input.

The repository's master correctness property, stated once by the
differential harness (``tests/test_differential.py``); these ids name
its cases, plus two generated-input properties.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HiveCube, MRCube, NaiveCube
from repro.core import SPCube
from repro.cubing import sequential_cube
from repro.mapreduce import ClusterConfig
from repro.relation import Relation, Schema

from ..test_differential import ENGINES, Case, check_case

#: Skew fraction of the ids -> the harness input with that much skew.
SKEWED = {0.0: "zipf", 0.5: "heavy", 1.0: "all-equal"}


@pytest.mark.parametrize("fn", ["count", "sum", "avg"])
@pytest.mark.parametrize("skew", sorted(SKEWED))
def test_engines_agree_on_random_data(fn, skew):
    for engine in ENGINES:
        check_case(Case(SKEWED[skew], fn, engine))


@pytest.mark.parametrize("dataset", ["binomial", "zipf", "wikipedia"])
def test_engines_agree_on_paper_workloads(dataset):
    for engine in ENGINES:
        check_case(Case(dataset, "count", engine))


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
