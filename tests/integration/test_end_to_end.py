"""End-to-end runs on the paper's workloads: metrics-level expectations.

These assert the *shape* claims of Section 6: SP-Cube wins on time and
traffic, balances reducers and keeps its sketch tiny.  The Figure 6
claims read the committed sweep (``BENCH_figures.json``, 30k rows per
point, rerun by CI's ``golden`` job); its p = 25 point is the skew these
ids first checked at miniature scale.  Where Hive fails is
``tests/benchmarks/test_figures_golden.py``'s.  Cube agreement is the
differential harness's.
"""

import json

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.datagen import gen_binomial, gen_zipf, wikipedia_traffic

from ..benchmarks.conftest import ROOT
from ..test_differential import Case, check_case

#: ``(engine, p in percent) -> point`` of the committed Figure 6 sweep.
FIGURE6 = {
    (point["engine"], point["x"]): point
    for point in json.loads((ROOT / "BENCH_figures.json").read_text())
    ["figures"]["6"]["points"]
}


class TestComparativeShapes:
    def test_spcube_fastest(self):
        spcube = FIGURE6["SP-Cube", 25]["total_seconds"]
        assert spcube < FIGURE6["Pig", 25]["total_seconds"]
        assert spcube < FIGURE6["Hive", 25]["total_seconds"]

    def test_spcube_least_traffic(self):
        spcube = FIGURE6["SP-Cube", 25]["map_output_bytes"]
        assert spcube < FIGURE6["Pig", 25]["map_output_bytes"]
        assert spcube < FIGURE6["Hive", 25]["map_output_bytes"]

    def test_all_agree(self):
        for engine in ("mrcube", "hive", "spcube"):
            check_case(Case("binomial", "count", engine))

    def test_sketch_orders_of_magnitude_below_input(self):
        assert FIGURE6["SP-Cube", 25]["sketch_bytes"] < 50_000


class TestSPCubeResilience:
    def test_flat_across_distributions(self):
        """Section 6.1's closing observation: SP-Cube performs similarly
        on very different distributions at equal size."""
        n = 10_000
        cluster = paper_cluster(n)
        times = []
        for rel in (
            wikipedia_traffic(n, seed=4),
            gen_zipf(n, seed=4),
            gen_binomial(n, 0.3, seed=4),
        ):
            run = SPCube(cluster).compute(rel)
            times.append(run.metrics.total_seconds)
        assert max(times) < 2.5 * min(times)

    def test_reducer_balance(self):
        n = 10_000
        cluster = paper_cluster(n)
        run = SPCube(cluster).compute(gen_zipf(n, seed=6))
        # max/mean load of the cube round's active reducers stays moderate.
        assert run.metrics.reducer_balance < 4.0
