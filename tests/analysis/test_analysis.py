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
        sweep = run_sweep(
            "demo", "n", tiny_workloads(), FACTORIES, cluster
        )
        assert sweep.algorithms == ["SP-Cube", "Naive"]
        assert [p.x for p in sweep.points] == [100.0, 200.0]

    def test_series_extraction(self, cluster):
        sweep = run_sweep("demo", "n", tiny_workloads(), FACTORIES, cluster)
        curves = sweep.series("total_seconds")
        assert set(curves) == {"SP-Cube", "Naive"}
        for curve in curves.values():
            assert [x for x, _y in curve] == [100.0, 200.0]
            assert all(y > 0 for _x, y in curve)

    def test_unknown_metric(self, cluster):
        sweep = run_sweep("demo", "n", tiny_workloads(), FACTORIES, cluster)
        with pytest.raises(KeyError):
            sweep.series("bogus_metric")

    def test_fault_seed_injects_faults_at_every_point(self, cluster):
        """The ROADMAP's CLI-parity knobs: a fault_seed makes every run of
        the sweep execute under a seeded FaultPlan, visible through the
        recovery metrics, while cubes still verify."""
        clean = run_sweep(
            "demo", "n", tiny_workloads(), FACTORIES, cluster
        )
        faulted = run_sweep(
            "demo",
            "n",
            tiny_workloads(),
            FACTORIES,
            cluster,
            verify=True,
            fault_seed=12,
            crash_prob=0.15,
            straggle_prob=0.1,
        )
        for metric in ("attempts", "recovered"):
            clean_total = sum(
                y for curve in clean.series(metric).values() for _x, y in curve
            )
            faulted_total = sum(
                y
                for curve in faulted.series(metric).values()
                for _x, y in curve
            )
            assert faulted_total > clean_total, metric

    def test_fault_knobs_do_not_mutate_the_shared_cluster(self, cluster):
        run_sweep(
            "demo", "n", tiny_workloads(), FACTORIES, cluster, fault_seed=5
        )
        assert cluster.fault_plan is None


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
    """Satellite of the observability PR: each (point, algorithm) run of a
    faulted sweep draws its own FaultPlan seed via derive_fault_seed."""

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

    def test_sweep_points_face_independent_schedules(self, cluster):
        """With a shared seed the same task identities replay the same coin
        flips at every point; per-point derivation must break that."""
        sweep = run_sweep(
            "demo", "n", tiny_workloads(), FACTORIES, cluster,
            fault_seed=12, crash_prob=0.2, straggle_prob=0.2,
        )
        per_point = [
            tuple(
                (name, run.attempts, run.killed_tasks)
                for name, run in point.runs.items()
            )
            for point in sweep.points
        ]
        # Two points over equally-shaped workloads: identical recovery
        # fingerprints at both would mean the schedules were shared.
        assert per_point[0] != per_point[1]

    def test_tracer_covers_every_sweep_run(self, cluster):
        from repro.observability import MemorySink, TraceAnalysis, Tracer

        sink = MemorySink()
        tracer = Tracer([sink], level="job")
        run_sweep(
            "demo", "n", tiny_workloads(), FACTORIES, cluster,
            tracer=tracer,
        )
        analysis = TraceAnalysis(sink.records)
        # 2 points x 2 algorithms = 4 run spans on one global timeline.
        assert len(analysis.runs) == 4
        starts = [span["t0"] for span in analysis.runs]
        assert starts == sorted(starts)
        assert starts[-1] > 0.0
