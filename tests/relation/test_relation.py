"""The Relation container."""

import random

import pytest

from repro.relation import Relation, Schema, SchemaError
from repro.relation.lattice import project


@pytest.fixture
def schema():
    return Schema(["a", "b"], "m")


class TestConstruction:
    def test_rows_materialized_as_tuples(self, schema):
        rel = Relation(schema, [["x", "y", 1]])
        assert rel.rows == [("x", "y", 1)]

    def test_validation_on_by_default(self, schema):
        with pytest.raises(SchemaError):
            Relation(schema, [("x", 1)])

    def test_validation_can_be_skipped(self, schema):
        rel = Relation(schema, [("x", 1)], validate=False)
        assert len(rel) == 1


class TestContainerProtocol:
    def test_len_iter_getitem(self, schema):
        rel = Relation(schema, [("x", "y", 1), ("u", "v", 2)])
        assert len(rel) == 2
        assert list(rel) == rel.rows
        assert rel[1] == ("u", "v", 2)

    def test_repr(self, schema):
        rel = Relation(schema, [("x", "y", 1)], name="demo")
        assert "demo" in repr(rel)
        assert "1 rows" in repr(rel)

    def test_measures(self, schema):
        rel = Relation(schema, [("x", "y", 1), ("u", "v", 2)])
        assert list(rel.measures()) == [1, 2]


class TestCubeHelpers:
    def test_project_group(self, schema):
        rel = Relation(schema, [("x", "y", 1)])
        assert project(rel.rows[0], 0b01, schema.num_dimensions) == ("x",)

    def test_group_sizes(self, schema):
        rel = Relation(schema, [("x", "y", 1), ("x", "z", 2), ("u", "y", 3)])
        assert rel.group_sizes(0b01) == {("x",): 2, ("u",): 1}
        assert rel.group_sizes(0) == {(): 3}


class TestSplit:
    def test_split_covers_all_rows(self, schema):
        rel = Relation(schema, [("x", "y", i) for i in range(10)])
        chunks = rel.split(3)
        assert sum(len(c) for c in chunks) == 10
        assert len(chunks) == 3

    def test_split_nearly_equal(self, schema):
        rel = Relation(schema, [("x", "y", i) for i in range(10)])
        sizes = [len(c) for c in rel.split(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_split_more_parts_than_rows(self, schema):
        rel = Relation(schema, [("x", "y", 1)])
        chunks = rel.split(4)
        assert sum(len(c) for c in chunks) == 1

    def test_split_invalid(self, schema):
        with pytest.raises(ValueError):
            Relation(schema, []).split(0)


class TestSampling:
    def test_sample_probability_bounds(self, schema):
        rel = Relation(schema, [("x", "y", 1)] * 100, validate=False)
        assert rel.sample(0.0) == []
        assert len(rel.sample(1.0)) == 100

    def test_sample_invalid_probability(self, schema):
        with pytest.raises(ValueError):
            Relation(schema, []).sample(1.5)

    def test_sample_deterministic_with_rng(self, schema):
        rel = Relation(schema, [("x", "y", i) for i in range(200)])
        s1 = rel.sample(0.3, random.Random(7))
        s2 = rel.sample(0.3, random.Random(7))
        assert s1 == s2
