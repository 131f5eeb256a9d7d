"""Experiment harness: sweeps, metric accessors, report rendering."""

import pytest

from repro.analysis import (
    METRICS,
    VerificationError,
    paper_cluster,
    run_algorithms,
    run_sweep,
)
from repro.analysis.report import _figure_table
from repro.baselines import NaiveCube
from repro.core import SPCube
from repro.cubing import CubeResult
from repro.interface import CubeRun
from repro.mapreduce import ClusterConfig, RunMetrics
from repro.relation import Relation, Schema

from ..conftest import make_random_relation


@pytest.fixture
def cluster():
    return ClusterConfig(num_machines=3)


def tiny_workloads():
    return [
        (100.0, make_random_relation(100, seed=1)),
        (200.0, make_random_relation(200, seed=2)),
    ]


FACTORIES = {
    "SP-Cube": lambda c: SPCube(c),
    "Naive": lambda c: NaiveCube(c),
}


class TestRunAlgorithms:
    def test_returns_run_per_algorithm(self, cluster):
        rel = make_random_relation(80, seed=3)
        runs = run_algorithms(
            rel, {name: f(cluster) for name, f in FACTORIES.items()}
        )
        assert set(runs) == {"SP-Cube", "Naive"}
        assert runs["SP-Cube"].cube == runs["Naive"].cube

    def test_verify_passes_when_equal(self, cluster):
        rel = make_random_relation(80, seed=4)
        run_algorithms(
            rel,
            {name: f(cluster) for name, f in FACTORIES.items()},
            verify=True,
        )

    def test_verify_raises_on_disagreement(self, cluster):
        rel = make_random_relation(50, seed=5)

        class Broken:
            name = "broken"

            def compute(self, relation):
                cube = CubeResult(relation.schema, {(0, ()): -1})
                return CubeRun(cube=cube, metrics=RunMetrics("broken"))

        with pytest.raises(VerificationError, match="disagrees"):
            run_algorithms(
                rel,
                {"good": SPCube(cluster), "bad": Broken()},
                verify=True,
            )


class TestRunSweep:
    def test_sweep_structure(self, cluster):
        sweep = run_sweep(tiny_workloads(), FACTORIES, cluster)
        assert [p.x for p in sweep.points] == [100.0, 200.0]
        for point in sweep.points:
            assert list(point.runs) == ["SP-Cube", "Naive"]


class TestMetricAccessors:
    def test_all_metrics_evaluate(self, cluster):
        rel = make_random_relation(60, seed=6)
        run = SPCube(cluster).compute(rel)
        for name, accessor in METRICS.items():
            value = accessor(run.metrics)
            assert isinstance(value, (int, float)), name


def cells(line):
    return [cell.strip() for cell in line.strip("|").split("|")]


class TestReports:
    """A figure of ``BENCH_figures.json`` as its EXPERIMENTS.md table."""

    @pytest.fixture
    def figure(self):
        def point(x, engine, seconds, mb, failed=False):
            return {"x": x, "engine": engine, "total_seconds": seconds,
                    "map_output_bytes": int(mb * 1e6), "failed": failed}

        return {"x_label": "n", "inputs": [], "points": [
            point(100, "SP-Cube", 20.31, 1.5), point(100, "Naive", 30.0, 2.0),
            point(200, "SP-Cube", 25.0, 2.25),
            point(200, "Naive", 41.0, 3.0, failed=True),
        ]}

    def test_panel_contains_curves_and_axis(self, figure):
        header, rule, *rows = _figure_table("9", figure).splitlines()
        assert set(rule) <= {"|", "-", " "}
        assert [cells(row)[:2] for row in rows] == [
            ["100", "SP-Cube"], ["100", "Naive"],
            ["200", "SP-Cube"], ["200", "Naive"],
        ]
        assert cells(rows[0]) == ["100", "SP-Cube", "20.3", "1.50"]

    def test_figure_stacks_panels(self, figure):
        header = _figure_table("9", figure).splitlines()[0]
        assert cells(header) == [
            "n", "engine", "9a running time (s)", "9b map output (MB)",
        ]

    def test_failed_runs_render_as_fail(self, figure):
        last = _figure_table("9", figure).splitlines()[-1]
        # A stuck run has no time (the paper plots a missing point), but
        # what it shipped before it stuck is still a number.
        assert cells(last) == ["200", "Naive", "FAIL(OOM)", "3.00"]


class TestHelpers:
    def test_paper_cluster_memory_calibration(self):
        cluster = paper_cluster(80_000)
        assert cluster.num_machines == 20
        assert cluster.memory_records == 80_000 // 80

    def test_paper_cluster_floor(self):
        assert paper_cluster(10).memory_records == 16


class TestPerPointFaultSeeds:
    """Each (point, algorithm) run of a faulted recovery sweep draws its
    own FaultPlan seed via derive_fault_seed."""

    def test_derivation_is_pure_and_documented(self):
        import zlib

        from repro.analysis import derive_fault_seed

        assert derive_fault_seed(12, "SP-Cube", 100.0) == zlib.crc32(
            repr((12, "SP-Cube", 100.0)).encode("utf-8")
        )
        # Stable across calls and sensitive to every component.
        base = derive_fault_seed(12, "SP-Cube", 100.0)
        assert derive_fault_seed(12, "SP-Cube", 100.0) == base
        assert derive_fault_seed(13, "SP-Cube", 100.0) != base
        assert derive_fault_seed(12, "Naive", 100.0) != base
        assert derive_fault_seed(12, "SP-Cube", 200.0) != base
