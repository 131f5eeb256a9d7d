"""The tuple-lattice marking planner (Algorithm 3's shared core)."""

import pytest

from repro.core import (
    PlannerError,
    build_exact_sketch,
    plan_for_skew_bits,
    plan_tuple,
    plan_without_covering,
)
from repro.relation import all_cuboids, bfs_order, mask_size

from ..conftest import make_random_relation


class TestNoSkewPlan:
    def test_single_emission_covers_everything(self):
        plan = plan_for_skew_bits(0, 3)
        assert plan.skewed_masks == ()
        assert len(plan.emissions) == 1
        base, covered = plan.emissions[0]
        assert base == 0
        assert sorted(covered) == list(all_cuboids(3))


class TestApexSkewedPlan:
    def test_level_one_bases_cover_lattice(self):
        # Only the apex (mask 0) skewed: the d level-1 nodes become bases.
        plan = plan_for_skew_bits(1 << 0, 3)
        assert plan.skewed_masks == (0,)
        bases = [base for base, _covered in plan.emissions]
        assert bases == [0b001, 0b010, 0b100]

    def test_prop55_intuition_each_tuple_sent_at_most_d_times(self):
        d = 4
        plan = plan_for_skew_bits(1, d)
        assert plan.num_emitted <= d


class TestCoverageInvariants:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_mask_handled_exactly_once(self, d):
        """Each lattice node is either skew-absorbed or covered by exactly
        one emission — the invariant that makes the cube complete and
        duplicate-free."""
        import itertools
        import random

        rng = random.Random(d)
        for _ in range(50):
            bits = _random_monotone_skew_bits(rng, d)
            plan = plan_for_skew_bits(bits, d)
            covered = list(plan.skewed_masks) + [
                mask for _base, masks in plan.emissions for mask in masks
            ]
            assert sorted(covered) == list(all_cuboids(d))

    def test_bases_precede_covered_in_bfs(self):
        plan = plan_for_skew_bits(0b1, 3)
        order = {mask: i for i, mask in enumerate(bfs_order(3))}
        for base, covered in plan.emissions:
            for mask in covered:
                assert order[mask] >= order[base]

    def test_covered_masks_are_supersets_of_base(self):
        plan = plan_for_skew_bits(0b1, 4)
        for base, covered in plan.emissions:
            for mask in covered:
                assert mask & base == base


class TestMonotonicityGuard:
    def test_inverted_skew_bits_raise(self):
        # Mark mask 0b11 skewed but its subset 0b01 not: impossible for any
        # sample, must be rejected rather than double-computed.
        bits = 1 << 0b11
        with pytest.raises(PlannerError, match="skew bitmap"):
            plan_for_skew_bits(bits, 2)


class TestPlanWithoutCovering:
    def test_each_nonskewed_mask_emitted_alone(self):
        plan = plan_without_covering(1 << 0, 3)
        assert plan.skewed_masks == (0,)
        assert len(plan.emissions) == 7
        for base, covered in plan.emissions:
            assert covered == (base,)


class TestPlanTuple:
    def test_uses_sketch_skew_bits(self):
        rel = make_random_relation(
            300, num_dimensions=3, cardinality=30, seed=1, skew_fraction=0.5
        )
        sketch = build_exact_sketch(rel, 4, 40)
        skew_row = (1, 1, 1, 5)
        plan = plan_tuple(skew_row, sketch)
        # The planted identical rows are skewed in every cuboid.
        assert sorted(plan.skewed_masks) == list(all_cuboids(3))
        assert plan.emissions == ()

    def test_mapper_reducer_consistency(self):
        """The reducer must reconstruct exactly the mapper's covered sets."""
        rel = make_random_relation(
            300, num_dimensions=3, cardinality=30, seed=2, skew_fraction=0.3
        )
        sketch = build_exact_sketch(rel, 4, 40)
        for row in rel.rows[:100]:
            plan_a = plan_tuple(row, sketch)
            plan_b = plan_tuple(row, sketch)
            assert plan_a.emissions == plan_b.emissions
            assert plan_a.covered_by == dict(plan_a.emissions)

    def test_plans_cached_by_skew_bits(self):
        assert plan_for_skew_bits(0, 4) is plan_for_skew_bits(0, 4)


def _random_monotone_skew_bits(rng, d):
    """Random downward-monotone skew bitmap (what real data can produce)."""
    # Pick random "skew sources" at the finest level and close downward.
    bits = 1  # apex always skewed in interesting cases
    for mask in all_cuboids(d):
        if mask and rng.random() < 0.2:
            # mark all subsets of this mask as skewed
            sub = mask
            while True:
                bits |= 1 << sub
                if sub == 0:
                    break
                sub = (sub - 1) & mask
    return bits
