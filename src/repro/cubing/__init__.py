"""Sequential cube algorithms: the oracle and BUC."""

from .buc import buc_cube, iceberg_groups
from .naive import sequential_cube
from .result import CubeResult

__all__ = [
    "buc_cube",
    "iceberg_groups",
    "sequential_cube",
    "CubeResult",
]
