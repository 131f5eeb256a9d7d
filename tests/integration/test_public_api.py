"""The public API surface: exports, protocol conformance, docstrings."""

import inspect

import pytest

import repro
from repro.interface import CubeRun


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        import repro.aggregates
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.cubing
        import repro.datagen
        import repro.mapreduce
        import repro.relation
        import repro.theory


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: repro.SPCube(),
            lambda: repro.NaiveCube(),
            lambda: repro.MRCube(),
            lambda: repro.HiveCube(),
        ],
        ids=["spcube", "naive", "mrcube", "hive"],
    )
    def test_engines_satisfy_cube_algorithm(self, factory):
        engine = factory()
        assert isinstance(engine.name, str) and engine.name
        assert callable(engine.compute)

    def test_compute_returns_cube_run(self):
        rel = repro.gen_binomial(50, 0.2, seed=1)
        run = repro.SPCube(repro.ClusterConfig(num_machines=2)).compute(rel)
        assert isinstance(run, CubeRun)


class TestDocumentation:
    def test_public_modules_have_docstrings(self):
        import repro.core.sketch
        import repro.core.spcube
        import repro.core.planner
        import repro.mapreduce.engine
        import repro.baselines.mrcube

        for module in (
            repro,
            repro.core.sketch,
            repro.core.spcube,
            repro.core.planner,
            repro.mapreduce.engine,
            repro.baselines.mrcube,
        ):
            assert module.__doc__ and len(module.__doc__) > 40

    def test_public_classes_have_docstrings(self):
        for cls in (
            repro.SPCube,
            repro.SPSketch,
            repro.ClusterConfig,
            repro.CubeResult,
            repro.Relation,
            repro.Schema,
        ):
            assert cls.__doc__, cls

    def test_public_methods_documented(self):
        for _name, method in inspect.getmembers(
            repro.SPCube, predicate=inspect.isfunction
        ):
            if not _name.startswith("_"):
                assert method.__doc__, _name
