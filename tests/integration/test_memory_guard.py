"""The build's heap high-water mark per output group.

An SP-Cube build holds its cube once, as the reducers' joined blocks,
and each reducer's shuffle input only until that reducer has run; the
store is then encoded one cuboid at a time.  This guard traces the
Python heap of ``SPCube.compute`` plus ``CubeStore.write`` on a seeded
sparse binomial input (the suite's ``build-sparse`` shape at half its
rows) and bounds the peak per output group, so a change that keeps a
second copy of the cube, or a phase's worth of shuffle data, fails here
without a wall-clock threshold.

Measured at ~130 B per group under pytest (CPython 3.11); keeping every
bucket to the end of the reduce phase, a dict per cuboid next to the
blocks and every cuboid's value columns through the write measured
~200.
"""

import tracemalloc

from repro.aggregates import get_aggregate
from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.datagen import gen_binomial
from repro.serving import CubeStore

#: The measured ~130 B per group plus a 15 % margin.
PEAK_BYTES_PER_GROUP = 149


def build(relation, path):
    run = SPCube(paper_cluster(len(relation)), get_aggregate("count")).compute(
        relation
    )
    CubeStore.write(run.cube, path, aggregate="count")
    return run.cube.num_groups


def test_build_peak_bytes_per_group(tmp_path):
    build(gen_binomial(200, 0.4, seed=1), str(tmp_path / "warm.store"))
    relation = gen_binomial(3000, 0.4, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        groups = build(relation, str(tmp_path / "cube.store"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert groups > 25_000
    assert peak / groups <= PEAK_BYTES_PER_GROUP, (
        f"{peak / groups:.1f} B per group at the heap peak"
    )
