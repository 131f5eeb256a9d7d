"""Sequential cube algorithms: the oracle and a full-cube BUC."""

from .buc import buc_cube
from .naive import sequential_cube
from .result import CubeResult

__all__ = [
    "buc_cube",
    "sequential_cube",
    "CubeResult",
]
