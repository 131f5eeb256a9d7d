"""Shared fixtures: the paper's running example and small clusters."""

import random

import pytest

from repro.aggregates import Count
from repro.cubing import CubeResult, sequential_cube
from repro.mapreduce import ClusterConfig
from repro.relation import Relation, Schema


@pytest.fixture
def retail_schema():
    """The running example's schema: R(name, city, year, sales)."""
    return Schema(["name", "city", "year"], measure="sales")


@pytest.fixture
def retail_relation(retail_schema):
    """A small instance of the paper's products/cities/years relation."""
    rows = [
        ("laptop", "Rome", 2012, 2000),
        ("laptop", "Rome", 2015, 1500),
        ("laptop", "Paris", 2012, 900),
        ("printer", "Rome", 2012, 40),
        ("printer", "Paris", 2010, 55),
        ("keyboard", "Paris", 2010, 300),
        ("keyboard", "Rome", 2009, 120),
        ("keyboard", "Rome", 2009, 80),
        ("television", "Berlin", 2012, 610),
        ("television", "Rome", 2012, 400),
    ]
    return Relation(retail_schema, rows, name="retail")


@pytest.fixture
def small_cluster():
    """A 4-machine cluster for fast engine tests."""
    return ClusterConfig(num_machines=4)


@pytest.fixture
def count():
    return Count()


def make_random_relation(
    num_rows,
    num_dimensions=3,
    cardinality=5,
    seed=0,
    skew_fraction=0.0,
):
    """Random test relation, optionally with an identical-row skew block."""
    rng = random.Random(seed)
    rows = []
    for _ in range(num_rows):
        if rng.random() < skew_fraction:
            dims = (1,) * num_dimensions
        else:
            dims = tuple(
                rng.randint(0, cardinality - 1)
                for _ in range(num_dimensions)
            )
        rows.append(dims + (rng.randint(1, 10),))
    schema = Schema([f"a{i}" for i in range(num_dimensions)], "m")
    return Relation(schema, rows, validate=False, name=f"rand{seed}")


def iceberg_cube(relation, aggregate, min_support):
    """The iceberg oracle: ``sequential_cube`` cut to the c-groups with at
    least ``min_support`` contributing rows."""
    counts = sequential_cube(relation)
    iceberg = CubeResult(relation.schema)
    for (mask, values), value in sequential_cube(relation, aggregate).items():
        if counts.value(mask, values) >= min_support:
            iceberg.add(mask, values, value)
    return iceberg
