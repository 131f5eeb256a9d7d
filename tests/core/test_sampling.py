"""Sampling parameters of Algorithm 2."""

import math
import random

import pytest

from repro.core import (
    expected_sample_size,
    sampling_probability,
    skew_sample_threshold,
)
from repro.core.sampling import _SampleMapper
from repro.mapreduce import TaskContext


class TestAlpha:
    def test_formula(self):
        n, k, m = 100_000, 20, 5_000
        assert sampling_probability(n, k, m) == pytest.approx(
            math.log(n * k) / m
        )

    def test_clamped_to_one_for_tiny_inputs(self):
        assert sampling_probability(10, 2, 1) == 1.0

    def test_zero_rows(self):
        assert sampling_probability(0, 20, 100) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sampling_probability(10, 0, 5)
        with pytest.raises(ValueError):
            sampling_probability(10, 2, 0)


class TestBeta:
    def test_formula(self):
        assert skew_sample_threshold(1000, 10) == pytest.approx(
            math.log(10_000)
        )

    def test_zero_rows(self):
        assert skew_sample_threshold(0, 20) == 0.0

    def test_invalid_machines(self):
        with pytest.raises(ValueError):
            skew_sample_threshold(10, 0)

    def test_alpha_times_m_equals_beta(self):
        """A group at the skew threshold has expected sample count beta."""
        n, k = 200_000, 20
        m = n // k
        alpha = sampling_probability(n, k, m)
        beta = skew_sample_threshold(n, k)
        assert alpha * m == pytest.approx(beta)


class TestExpectedSampleSize:
    def test_order_of_m(self):
        """Prop 4.4: expected sample size is O(m) — concretely k*ln(nk)."""
        n, k = 1_000_000, 20
        m = n // k
        expected = expected_sample_size(n, k, m)
        assert expected == pytest.approx(k * math.log(n * k))
        assert expected < m


#: ``random.Random(0 * 1_000_003 + 3)``: the draws <= 0.05 among 400.
SEED_0_MACHINE_3_SAMPLE = [
    6, 25, 75, 77, 87, 92, 113, 116, 126, 141, 184, 203, 210, 233, 236,
    243, 302, 305, 310, 319, 375,
]


class TestSampleMapper:
    """Round 1's chunk kernel draws the stream the per-record map drew."""

    def mapper(self, alpha, seed, machine):
        mapper = _SampleMapper(alpha, seed)
        mapper.setup(TaskContext(machine, 4, 32))
        return mapper

    def test_sample_of_seed_zero_is_the_per_record_loops(self):
        chunk = [(i, str(i % 7)) for i in range(400)]
        alpha, seed, machine = 0.05, 0, 3
        rng = random.Random(seed * 1_000_003 + machine)
        want = []
        for record in chunk:  # the per-record ``map`` this kernel replaced
            if rng.random() <= alpha:
                want.append(record)
        mapper = self.mapper(alpha, seed, machine)
        assert mapper.map_chunk(chunk) == (400, {0: want})
        assert [record[0] for record in want] == SEED_0_MACHINE_3_SAMPLE
        # One stream per task: the next chunk continues it.
        more = [record for record in chunk if rng.random() <= alpha]
        assert more != want
        assert mapper.map_chunk(chunk) == (400, {0: more})

    def test_machines_draw_independent_streams(self):
        chunk = list(range(400))
        samples = {
            tuple(self.mapper(0.05, 0, machine).map_chunk(chunk)[1][0])
            for machine in range(4)
        }
        assert len(samples) == 4

    def test_empty_sample_is_no_run(self):
        assert self.mapper(0.0, 0, 0).map_chunk(list(range(50))) == (50, {})
        assert self.mapper(1.0, 0, 0).map_chunk([]) == (0, {})
