"""Sampling parameters of Algorithm 2 (paper Section 4.2).

Each tuple enters the sample independently with probability

    alpha = ln(n * k) / m

and a c-group is declared *skewed* when its **sample** frequency exceeds

    beta = ln(n * k).

The paper derives these choices from the accuracy/size tradeoff proved in
Propositions 4.4-4.7: the sample has size ``O(m)`` w.h.p., every truly
skewed group (``|set(g)| > m``) is caught w.h.p., and the sketch fits in
one machine's memory.  Note ``alpha * m = beta``: a group at the skew
threshold has expected sample count exactly ``beta``.
"""

from __future__ import annotations

import math
import random

from ..mapreduce.engine import Mapper


def sampling_probability(num_records: int, num_machines: int, memory_records: int) -> float:
    """``alpha = ln(n k) / m``, clamped to [0, 1].

    Tiny inputs can push the formula above 1 (the sample would be the whole
    relation); clamping keeps the algorithm well-defined there — the paper
    notes such inputs are not practical MapReduce candidates anyway.
    """
    if num_records <= 0:
        return 0.0
    if num_machines <= 0 or memory_records <= 0:
        raise ValueError("num_machines and memory_records must be positive")
    alpha = math.log(num_records * num_machines) / memory_records
    return min(1.0, max(0.0, alpha))


class _SampleMapper(Mapper):
    """Round 1 map (Algorithm 2 lines 2-5): Bernoulli sampling, one
    deterministic stream per machine — SP-Cube's and MR-Cube's alike."""

    def __init__(self, alpha: float, seed: int):
        self._alpha = alpha
        self._seed = seed

    def setup(self, context) -> None:
        super().setup(context)
        self._rng = random.Random(self._seed * 1_000_003 + context.machine)

    def map_chunk(self, chunk):
        """One draw per record, in chunk order; the sample is one run."""
        draw, alpha = self._rng.random, self._alpha
        sample = [record for record in chunk if draw() <= alpha]
        return len(chunk), ({0: sample} if sample else {})


def skew_sample_threshold(num_records: int, num_machines: int) -> float:
    """``beta = ln(n k)`` — sample-count threshold for declaring skew."""
    if num_records <= 0:
        return 0.0
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    return math.log(num_records * num_machines)


def expected_sample_size(num_records: int, num_machines: int, memory_records: int) -> float:
    """``n * alpha`` — the expected sample size, ``O(m)`` by Prop 4.4."""
    return num_records * sampling_probability(
        num_records, num_machines, memory_records
    )
