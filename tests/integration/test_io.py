"""File interchange: relations, cubes, sketches."""

from pathlib import Path

import pytest

from repro import io as repro_io
from repro.core import SPCube, build_exact_sketch
from repro.cubing import sequential_cube
from repro.datagen import gen_binomial
from repro.mapreduce import ClusterConfig
from repro.relation import Relation, Schema, all_cuboids
from repro.relation.lattice import project

from ..conftest import make_random_relation


#: The retail cube's whole export: cuboids in mask order, groups sorted.
RETAIL_STAR_NOTATION = """\
(*, *, *)\t10
(keyboard, *, *)\t3
(laptop, *, *)\t3
(printer, *, *)\t2
(television, *, *)\t2
(*, Berlin, *)\t1
(*, Paris, *)\t3
(*, Rome, *)\t6
(*, *, 2009)\t2
(*, *, 2010)\t2
(*, *, 2012)\t5
(*, *, 2015)\t1
(keyboard, Paris, *)\t1
(keyboard, Rome, *)\t2
(laptop, Paris, *)\t1
(laptop, Rome, *)\t2
(printer, Paris, *)\t1
(printer, Rome, *)\t1
(television, Berlin, *)\t1
(television, Rome, *)\t1
(keyboard, *, 2009)\t2
(keyboard, *, 2010)\t1
(laptop, *, 2012)\t2
(laptop, *, 2015)\t1
(printer, *, 2010)\t1
(printer, *, 2012)\t1
(television, *, 2012)\t2
(*, Berlin, 2012)\t1
(*, Paris, 2010)\t2
(*, Paris, 2012)\t1
(*, Rome, 2009)\t2
(*, Rome, 2012)\t3
(*, Rome, 2015)\t1
(keyboard, Paris, 2010)\t1
(keyboard, Rome, 2009)\t2
(laptop, Paris, 2012)\t1
(laptop, Rome, 2012)\t1
(laptop, Rome, 2015)\t1
(printer, Paris, 2010)\t1
(printer, Rome, 2012)\t1
(television, Berlin, 2012)\t1
(television, Rome, 2012)\t1
"""


class TestRelationRoundtrip:
    def test_roundtrip_string_dimensions(self, retail_relation, tmp_path):
        path = str(tmp_path / "retail.tsv")
        written = repro_io.write_relation(retail_relation, path)
        assert written == 10
        loaded = repro_io.read_relation(
            path, dimension_parsers=[str, str, int]
        )
        assert loaded.rows == retail_relation.rows
        assert loaded.schema == retail_relation.schema

    def test_roundtrip_integer_dimensions(self, tmp_path):
        rel = make_random_relation(50, seed=1)
        path = str(tmp_path / "ints.tsv")
        repro_io.write_relation(rel, path)
        loaded = repro_io.read_relation(
            path, dimension_parsers=[int, int, int]
        )
        assert loaded.rows == rel.rows

    def test_custom_delimiter(self, retail_relation, tmp_path):
        path = str(tmp_path / "retail.csv")
        repro_io.write_relation(retail_relation, path, delimiter=",")
        loaded = repro_io.read_relation(
            path, delimiter=",", dimension_parsers=[str, str, int]
        )
        assert len(loaded) == 10

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tm\n1\t2\t3\n1\t2\n")
        for parsers in (None, [int, int]):
            with pytest.raises(
                ValueError, match=r"bad\.tsv:3: 2 fields, expected 3"
            ):
                repro_io.read_relation(str(path), dimension_parsers=parsers)

    def test_default_keeps_text_and_narrows_integral_measures(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("a\tb\tm\nx\t1\t3.0\ny\t2\t2.5\n\t\t-4\n")
        loaded = repro_io.read_relation(str(path))
        assert loaded.rows == [("x", "1", 3), ("y", "2", 2.5), ("", "", -4)]
        assert [type(row[-1]) for row in loaded.rows] == [int, float, int]
        explicit = repro_io.read_relation(
            str(path), dimension_parsers=[str, str]
        )
        assert explicit.rows == loaded.rows

    def test_wrong_parser_count(self, retail_relation, tmp_path):
        path = str(tmp_path / "retail.tsv")
        repro_io.write_relation(retail_relation, path)
        with pytest.raises(ValueError, match="parsers"):
            repro_io.read_relation(path, dimension_parsers=[str])

    def test_cube_of_loaded_equals_cube_of_original(
        self, retail_relation, tmp_path
    ):
        path = str(tmp_path / "retail.tsv")
        repro_io.write_relation(retail_relation, path)
        loaded = repro_io.read_relation(
            path, dimension_parsers=[str, str, int]
        )
        assert sequential_cube(loaded) == sequential_cube(retail_relation)


#: A dimension holding ``None``, ints and strings, which ``<`` cannot
#: order: groups follow the sort token, None < numbers < str.
MIXED_STAR_NOTATION = """\
(*, *)\t3
(None, *)\t1
(1, *)\t1
(b, *)\t1
(*, None)\t1
(*, a)\t2
(None, a)\t1
(1, a)\t1
(b, None)\t1
"""


def none_relation():
    """The differential harness's ``none`` input."""
    rows = [(None, "a", 1), (None, None, 2.5), ("b", None, 3)] * 4
    return Relation(Schema(["a", "b"], "m"), rows)


class TestCubeExport:
    def test_star_notation_lines(self, retail_relation, tmp_path):
        cube = sequential_cube(retail_relation)
        path = tmp_path / "cube.tsv"
        lines = repro_io.write_cube(cube, str(path))
        assert lines == cube.num_groups
        assert path.read_text() == RETAIL_STAR_NOTATION

    def test_values_that_do_not_compare(self, tmp_path):
        rows = [(None, "a", 1), ("b", None, 2), (1, "a", 3)]
        cube = sequential_cube(Relation(Schema(["a", "b"], "m"), rows))
        path = tmp_path / "cube.tsv"
        assert repro_io.write_cube(cube, str(path)) == cube.num_groups
        assert path.read_text() == MIXED_STAR_NOTATION


class TestSketchRoundtrip:
    def test_json_roundtrip_exact(self):
        rel = make_random_relation(400, seed=5, skew_fraction=0.4)
        sketch = build_exact_sketch(rel, 4, 40)
        restored = repro_io.sketch_from_json(repro_io.sketch_to_json(sketch))
        assert restored.num_dimensions == sketch.num_dimensions
        assert restored.num_partitions == sketch.num_partitions
        for mask in all_cuboids(3):
            assert (
                restored.cuboids[mask].skewed == sketch.cuboids[mask].skewed
            )
            assert (
                restored.cuboids[mask].partition_elements
                == sketch.cuboids[mask].partition_elements
            )

    def test_json_roundtrip_of_none_next_to_strings(self):
        sketch = build_exact_sketch(none_relation(), 3, 2)
        assert sketch.num_skewed
        restored = repro_io.sketch_from_json(repro_io.sketch_to_json(sketch))
        assert restored.cuboids == sketch.cuboids

    def test_restored_sketch_answers_queries(self):
        rel = make_random_relation(400, seed=6, skew_fraction=0.5)
        sketch = build_exact_sketch(rel, 4, 40)
        restored = repro_io.sketch_from_json(repro_io.sketch_to_json(sketch))
        for row in rel.rows[:30]:
            assert restored.skew_bits(row) == sketch.skew_bits(row)
            for mask in all_cuboids(3):
                group = project(row, mask, 3)
                assert restored.partition_of(
                    mask, group
                ) == sketch.partition_of(mask, group)

    def test_file_roundtrip(self, tmp_path):
        rel = gen_binomial(500, 0.4, seed=2)
        run = SPCube(ClusterConfig(num_machines=4)).compute(rel)
        path = str(tmp_path / "sketch.json")
        size = repro_io.write_sketch(run.sketch, path)
        assert size > 0
        restored = repro_io.sketch_from_json(Path(path).read_text())
        assert restored.num_skewed == run.sketch.num_skewed
