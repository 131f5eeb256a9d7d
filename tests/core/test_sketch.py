"""The SP-Sketch: exact and sampled builders, invariants, size."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SketchError,
    build_exact_sketch,
    build_sketch_from_sample,
    sampling_probability,
    skew_sample_threshold,
)
from repro.core.sketch import CuboidSketch, SPSketch
from repro.relation import Relation, Schema, all_cuboids
from repro.relation.lattice import project, project_rows

from ..conftest import make_random_relation


def skewed_relation(n=400, skew_fraction=0.5, seed=0):
    return make_random_relation(
        n,
        num_dimensions=3,
        cardinality=50,
        seed=seed,
        skew_fraction=skew_fraction,
    )


class TestExactSketch:
    def test_detects_exactly_the_true_skews(self):
        rel = skewed_relation()
        m = 40
        sketch = build_exact_sketch(rel, num_partitions=4, memory_records=m)
        for mask in all_cuboids(3):
            truth = {
                values
                for values, count in rel.group_sizes(mask).items()
                if count > m
            }
            assert set(sketch.cuboids[mask].skewed) == truth

    def test_apex_always_skewed_when_n_exceeds_m(self):
        rel = skewed_relation(n=100, skew_fraction=0.0)
        sketch = build_exact_sketch(rel, 4, 25)
        assert sketch.is_skewed(0, ())

    def test_partition_elements_per_cuboid(self):
        rel = skewed_relation()
        k = 5
        sketch = build_exact_sketch(rel, k, 40)
        for mask in all_cuboids(3):
            assert len(sketch.cuboids[mask].partition_elements) == k - 1

    def test_monotonicity_holds(self):
        sketch = build_exact_sketch(skewed_relation(), 4, 30)
        sketch.validate_monotonic()  # must not raise


class TestSampledSketch:
    def test_detects_heavy_skews(self):
        """A group holding half the rows must be caught (Prop 4.5)."""
        n, k = 2000, 5
        m = n // k
        rel = skewed_relation(n=n, skew_fraction=0.5, seed=7)
        alpha = sampling_probability(n, k, m)
        beta = skew_sample_threshold(n, k)
        sample = rel.sample(alpha, random.Random(3))
        sketch = build_sketch_from_sample(sample, 3, k, beta)
        # The planted identical rows make (1,1,1) and all its projections
        # giant (50% of n >> m); every one must be flagged.
        assert sketch.is_skewed(0b111, (1, 1, 1))
        assert sketch.is_skewed(0b001, (1,))
        assert sketch.is_skewed(0, ())

    def test_sample_size_order_m(self):
        """Prop 4.4: the sample is O(m) w.h.p."""
        n, k = 5000, 10
        m = n // k
        rel = skewed_relation(n=n, seed=9)
        alpha = sampling_probability(n, k, m)
        sample = rel.sample(alpha, random.Random(4))
        assert len(sample) < 2 * m

    def test_empty_sample_gives_blank_sketch(self):
        sketch = build_sketch_from_sample([], 3, 4, beta=5.0)
        assert sketch.num_skewed == 0
        assert sketch.partition_of(0b111, (1, 2, 3)) == 0

    def test_monotonicity_holds_for_any_sample(self):
        rel = skewed_relation(seed=11)
        sample = rel.sample(0.5, random.Random(5))
        sketch = build_sketch_from_sample(sample, 3, 4, beta=3.0)
        sketch.validate_monotonic()


class TestSketchQueries:
    @pytest.fixture
    def sketch(self):
        rel = skewed_relation()
        return build_exact_sketch(rel, 4, 40)

    def test_partition_of_uses_elements(self, sketch):
        mask = 0b001
        elements = sketch.cuboids[mask].partition_elements
        if elements:
            below = (min(elements)[0] - 1,)
            assert sketch.partition_of(mask, below) == 0

    def test_skew_bits_consistency(self, sketch):
        rel = skewed_relation()
        for row in rel.rows[:50]:
            bits = sketch.skew_bits(row)
            for mask in all_cuboids(3):
                projected = project(row, mask, 3)
                assert bool(bits >> mask & 1) == sketch.is_skewed(
                    mask, projected
                )

    def test_skewed_groups_iteration_sorted(self, sketch):
        listed = list(sketch.skewed_groups())
        assert listed == sorted(listed, key=lambda item: (item[0], item[1]))
        assert len(listed) == sketch.num_skewed

    def test_payload_roundtrip_shape(self, sketch):
        payload = sketch.to_payload()
        assert len(payload) == 8  # one entry per cuboid
        for mask, skews, elements in payload:
            assert isinstance(mask, int)
            assert isinstance(skews, tuple)
            assert isinstance(elements, tuple)

    def test_serialized_bytes_positive_and_small(self, sketch):
        size = sketch.serialized_bytes()
        assert 0 < size < 100_000

    def test_repr(self, sketch):
        assert "SPSketch" in repr(sketch)


class TestMonotonicityValidation:
    def test_violation_detected(self):
        cuboids = {
            0b11: CuboidSketch(skewed={(1, 2): 100}),
            # (1,) deliberately missing from 0b01's skews.
        }
        sketch = SPSketch(2, 2, cuboids)
        with pytest.raises(SketchError, match="monotonicity"):
            sketch.validate_monotonic()

    def test_missing_cuboids_filled_with_blanks(self):
        sketch = SPSketch(2, 2, {})
        assert len(sketch.cuboids) == 4
        assert sketch.num_skewed == 0


class TestToDict:
    def test_summary_fields(self):
        rel = skewed_relation()
        sketch = build_exact_sketch(rel, num_partitions=4, memory_records=40)
        summary = sketch.to_dict()
        assert summary["num_dimensions"] == 3
        assert summary["num_partitions"] == 4
        assert summary["num_cuboids"] == 8
        assert summary["num_skewed"] == sketch.num_skewed
        assert summary["serialized_bytes"] == sketch.serialized_bytes()
        # Per-cuboid skew counts cover exactly the non-empty cuboids.
        for mask, count in summary["skewed_per_cuboid"].items():
            assert count == len(sketch.cuboids[mask].skewed) > 0
        assert summary["num_partition_elements"] == sum(
            summary["partition_elements_per_cuboid"].values()
        )

    def test_json_serializable(self):
        import json

        rel = skewed_relation(n=100)
        sketch = build_exact_sketch(rel, 3, 30)
        json.dumps(sketch.to_dict())

    def test_serialized_bytes_cached(self):
        rel = skewed_relation(n=100)
        sketch = build_exact_sketch(rel, 3, 30)
        assert sketch._size_bytes is None
        first = sketch.serialized_bytes()
        assert sketch._size_bytes == first
        assert sketch.serialized_bytes() == first


#: Dimension values that compare equal across types (``1 == True ==
#: 1.0``): a group's key is the projection of its first row.
LOOK_ALIKE = st.sampled_from([0, 1, 2, False, True, 0.0, 1.0, 2.5])


@st.composite
def relations(draw):
    d = draw(st.integers(1, 4))
    row = st.tuples(*[LOOK_ALIKE] * d, st.integers(1, 9))
    if draw(st.booleans()):
        rows = draw(st.lists(row, max_size=40))
    else:  # all rows equal, or none
        rows = [draw(row)] * draw(st.integers(0, 30))
    schema = Schema([f"a{i}" for i in range(d)], "m")
    return Relation(schema, rows, validate=False)


class TestSketchProperties:
    """Both builders against oracles that do not sort runs: a ``Counter``
    for the skews, positions ``i * n // k`` for the elements.  Compared
    by ``repr`` so that a look-alike key of another type fails."""

    @given(
        rel=relations(),
        k=st.integers(1, 5),
        beta=st.floats(-1.0, 8.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_sketch_is_counts_and_quantiles(self, rel, k, beta):
        d = rel.schema.num_dimensions
        sketch = build_sketch_from_sample(rel.rows, d, k, beta)
        for mask in all_cuboids(d):
            counts = Counter(project_rows(rel.rows, mask, d))
            heavy = {group: n for group, n in counts.items() if n > beta}
            assert repr(sorted(sketch.cuboids[mask].skewed.items())) == repr(
                sorted(heavy.items())
            )
            ordered = sorted(project_rows(rel.rows, mask, d))
            n = len(ordered)
            quantiles = [ordered[i * n // k] for i in range(1, k)] if n else []
            assert repr(sketch.cuboids[mask].partition_elements) == repr(
                quantiles
            )

    @given(rel=relations(), k=st.integers(1, 5), m=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_sampled_builder_on_all_rows_is_the_exact_sketch(self, rel, k, m):
        d = rel.schema.num_dimensions
        sampled = build_sketch_from_sample(rel.rows, d, k, m)
        assert repr(sampled.to_payload()) == repr(
            build_exact_sketch(rel, k, m).to_payload()
        )
