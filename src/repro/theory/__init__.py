"""Theoretical predicates: skewness monotonicity and traffic bounds."""

from .bounds import (
    TrafficPlan,
    expected_false_negatives,
    expected_false_positives,
    false_negative_probability,
    false_positive_probability,
    independent_traffic_bound,
    load_band,
    monotonic_traffic_bound,
    planned_traffic,
    prop56_skew_probability_bound,
    skewed_traffic_bound,
    worst_case_traffic,
)
from .skewness import (
    is_skewness_monotonic,
    monotonicity_violations,
    skewed_groups_by_cuboid,
)

__all__ = [
    "TrafficPlan",
    "expected_false_negatives",
    "expected_false_positives",
    "false_negative_probability",
    "false_positive_probability",
    "independent_traffic_bound",
    "load_band",
    "monotonic_traffic_bound",
    "planned_traffic",
    "prop56_skew_probability_bound",
    "skewed_traffic_bound",
    "worst_case_traffic",
    "is_skewness_monotonic",
    "monotonicity_violations",
    "skewed_groups_by_cuboid",
]
