"""The golden writer, ``benchmarks/golden.py``, and its committed files."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def golden():
    """``benchmarks/golden.py`` as a module (``benchmarks/`` is not a
    package); importing it runs no sweep."""
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "benchmarks" / "golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def figures():
    return json.loads((ROOT / "BENCH_figures.json").read_text())


@pytest.fixture(scope="session")
def recovery():
    return json.loads((ROOT / "BENCH_recovery.json").read_text())
