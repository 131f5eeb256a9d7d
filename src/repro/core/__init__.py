"""SP-Cube core: the SP-Sketch, the shared planner, and the algorithm."""

from .partition import (
    find_partition,
    partition_elements_from_sorted,
    partition_loads,
)
from .planner import (
    PlannerError,
    TuplePlan,
    plan_for_skew_bits,
    plan_tuple,
    plan_without_covering,
)
from .sampling import (
    expected_sample_size,
    sampling_probability,
    skew_sample_threshold,
)
from .sketch import (
    CuboidSketch,
    SketchError,
    SPSketch,
    build_exact_sketch,
    build_sketch_from_sample,
)
from .spcube import SPCube

__all__ = [
    "find_partition",
    "partition_elements_from_sorted",
    "partition_loads",
    "PlannerError",
    "TuplePlan",
    "plan_for_skew_bits",
    "plan_tuple",
    "plan_without_covering",
    "expected_sample_size",
    "sampling_probability",
    "skew_sample_threshold",
    "CuboidSketch",
    "SketchError",
    "SPSketch",
    "build_exact_sketch",
    "build_sketch_from_sample",
    "SPCube",
]
