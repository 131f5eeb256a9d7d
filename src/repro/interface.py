"""Shared interface implemented by every cube algorithm in this repository.

All engines — SP-Cube and the baselines — expose::

    algorithm = SomeCube(cluster=ClusterConfig(...), aggregate=Count())
    run = algorithm.compute(relation)
    run.cube      # CubeResult: every c-group with its aggregate value
    run.metrics   # RunMetrics: simulated times, traffic, balance, failures

which is what the experiment harness (:mod:`repro.analysis`) builds the
paper's figures from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cubing.result import CubeResult
from .mapreduce.metrics import RunMetrics


@dataclass
class CubeRun:
    """Result of one algorithm execution: the cube plus its cost profile."""

    cube: CubeResult
    metrics: RunMetrics
    #: SP-Cube also returns the sketch it built (None for baselines).
    sketch: Optional[object] = field(default=None)
