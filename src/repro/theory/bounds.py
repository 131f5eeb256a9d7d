"""Analytic bounds of Sections 4.2 and 5.2, as checkable predicates.

The paper proves (counting shuffled *records*, each of size ``O(d)``):

* Proposition 5.2 — skewed-group traffic is ``O(d n)`` records overall;
* Theorem 5.3 — a worst-case relation forces ``Theta(2^d n)``;
* Proposition 5.5 — skewness-monotonic relations stay within ``O(d^2 n)``;
* Proposition 5.6 — independently-distributed attributes with the stated
  skew-probability bound stay within ``O(d^3 n)``.

It also proves (Propositions 4.5-4.7) that the *sampled* sketch of
Algorithm 2 classifies skew correctly with high probability: a group's
sample count is Binomial, and Chernoff tails bound the probability that
a truly skewed group (``|set(g)| > m``) stays under ``beta = ln(nk)`` in
the sample (a *false negative*) or a small group crosses it (a *false
positive*).  :func:`false_negative_probability` and
:func:`false_positive_probability` expose those per-group tails, and the
``expected_false_*`` helpers sum them over a cuboid's true group sizes —
what the sketch audit (:mod:`repro.observability.diagnostics`) verifies
observed misclassification counts against.

:func:`planned_traffic` measures SP-Cube's *planned* record emissions for
a relation under a given sketch — no engine run needed — so the theory
bench can compare measured counts directly against the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..core.planner import plan_tuple
from ..core.sampling import sampling_probability, skew_sample_threshold
from ..core.sketch import SPSketch
from ..relation.relation import Relation


@dataclass(frozen=True)
class TrafficPlan:
    """Planned round-2 emissions for a relation under a sketch."""

    #: Tuples emitted to range-partitioned reducers (one per emission).
    emitted_tuples: int
    #: Map-side partial-aggregation hits (skewed lattice nodes, summed
    #: over tuples) — these do NOT cross the network individually.
    skew_absorptions: int
    #: Number of rows examined.
    rows: int
    num_dimensions: int

    @property
    def emissions_per_tuple(self) -> float:
        return self.emitted_tuples / self.rows if self.rows else 0.0


def planned_traffic(relation: Relation, sketch: SPSketch) -> TrafficPlan:
    """Count SP-Cube's planned per-tuple emissions under ``sketch``."""
    emitted = 0
    absorbed = 0
    for row in relation:
        plan = plan_tuple(row, sketch)
        emitted += plan.num_emitted
        absorbed += len(plan.skewed_masks)
    return TrafficPlan(
        emitted_tuples=emitted,
        skew_absorptions=absorbed,
        rows=len(relation),
        num_dimensions=relation.schema.num_dimensions,
    )


def load_band(
    num_rows: int, num_partitions: int, memory_records: int
) -> float:
    """Prop 4.2(2)'s per-partition promise, ``n / k + m`` tuples.

    Exact partition elements sit ``n / k`` positions apart in a sorted
    cuboid, and one non-skewed group of up to ``m`` tuples may straddle
    a boundary.
    """
    return num_rows / num_partitions + memory_records


def skewed_traffic_bound(num_dimensions: int, num_rows: int) -> int:
    """Prop 5.2 bound on skew-handling traffic: ``O(d n)`` records."""
    return num_dimensions * num_rows


def monotonic_traffic_bound(num_dimensions: int, num_rows: int) -> int:
    """Prop 5.5 bound: ``O(d^2 n)`` total records for monotonic relations.

    The proof shows at most ``O(d)`` emissions per tuple (each of size
    ``O(d)``); we bound the *record* count by ``d * n`` and leave the
    ``O(d)`` record width to the byte-level metrics.
    """
    return num_dimensions * num_rows


def independent_traffic_bound(num_dimensions: int, num_rows: int) -> int:
    """Prop 5.6 bound: expected ``O(d^2)`` emissions per tuple."""
    return num_dimensions * num_dimensions * num_rows


def worst_case_traffic(num_dimensions: int, num_rows: int) -> int:
    """Thm 5.3: the adversarial relation forces ``Theta(2^d n)`` records."""
    return (1 << num_dimensions) * num_rows


def prop56_skew_probability_bound(num_dimensions: int, level: int) -> float:
    """Prop 5.6's hypothesis: ``P(t in skewed group of an l-cuboid)`` must
    not exceed ``d^(1/(l+1)) / d``."""
    if level < 1:
        raise ValueError("cuboid level must be >= 1")
    return num_dimensions ** (1.0 / (level + 1)) / num_dimensions


# -- sketch-accuracy probability bounds (Section 4.2) ------------------------


def false_negative_probability(
    true_size: int, num_rows: int, num_machines: int, memory_records: int
) -> float:
    """Chernoff bound on missing a truly skewed group in the sample.

    A group of true size ``s > m`` has sample count ``X ~ Bin(s, alpha)``
    with mean ``mu = s * alpha > alpha * m = beta``; it is *missed* (a
    false negative) when ``X <= beta``.  The lower Chernoff tail gives
    ``P(X <= (1 - delta) mu) <= exp(-delta^2 mu / 2)`` with
    ``delta = 1 - beta/mu``.  The bound decays fast in ``s``: groups far
    above the memory threshold are essentially never missed, which is the
    content of Proposition 4.5.

    Returns 1.0 (the trivial bound) when ``mu <= beta`` — i.e. for groups
    at or below the skew threshold, where the sketch is *allowed* to go
    either way.
    """
    if true_size < 0:
        raise ValueError("true_size must be non-negative")
    if true_size == 0:
        return 1.0
    alpha = sampling_probability(num_rows, num_machines, memory_records)
    beta = skew_sample_threshold(num_rows, num_machines)
    mu = true_size * alpha
    if mu <= beta:
        return 1.0
    delta = 1.0 - beta / mu
    return math.exp(-delta * delta * mu / 2.0)


def false_positive_probability(
    true_size: int, num_rows: int, num_machines: int, memory_records: int
) -> float:
    """Chernoff bound on flagging a non-skewed group as skewed.

    A group of true size ``s <= m`` has mean sample count
    ``mu = s * alpha <= beta``; it is wrongly flagged (a false positive)
    when ``X > beta``.  The upper Chernoff tail gives
    ``P(X >= (1 + delta) mu) <= exp(-delta^2 mu / (2 + delta))`` with
    ``delta = beta/mu - 1``.  Returns 1.0 when ``mu >= beta`` (groups at
    the threshold — no non-trivial bound) and 0.0 for empty groups.
    """
    if true_size < 0:
        raise ValueError("true_size must be non-negative")
    if true_size == 0:
        return 0.0
    alpha = sampling_probability(num_rows, num_machines, memory_records)
    beta = skew_sample_threshold(num_rows, num_machines)
    mu = true_size * alpha
    if mu >= beta:
        return 1.0
    delta = beta / mu - 1.0
    return math.exp(-delta * delta * mu / (2.0 + delta))


def expected_false_negatives(
    skewed_sizes: Iterable[int],
    num_rows: int,
    num_machines: int,
    memory_records: int,
) -> float:
    """Upper bound on the expected number of missed skewed groups.

    Sums the per-group Chernoff tails over the *truly skewed* group sizes
    (linearity of expectation; each term capped at 1).  The sketch audit
    compares the observed false-negative count of a sampled sketch against
    this bound.
    """
    return sum(
        min(
            1.0,
            false_negative_probability(
                size, num_rows, num_machines, memory_records
            ),
        )
        for size in skewed_sizes
    )


def expected_false_positives(
    non_skewed_sizes: Iterable[int],
    num_rows: int,
    num_machines: int,
    memory_records: int,
) -> float:
    """Upper bound on the expected number of wrongly flagged groups.

    Sums the per-group upper tails over the *truly non-skewed* group
    sizes.  Groups of a handful of tuples contribute essentially zero, so
    the sum is dominated by near-threshold groups, matching the paper's
    observation that sampling errors concentrate at the ``m`` boundary.
    """
    return sum(
        min(
            1.0,
            false_positive_probability(
                size, num_rows, num_machines, memory_records
            ),
        )
        for size in non_skewed_sizes
    )
