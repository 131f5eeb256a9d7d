"""Import cost is proportional to the command, and lazy packages keep
their eager API.

The budget cases each run in a child interpreter: inside pytest nearly
every ``repro`` module is already in ``sys.modules``, which would mask
exactly the imports being counted.
"""

import ast
import importlib
import json
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: What no process may load unless its command uses it.
DENY = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.baselines",
    "repro.observability.diagnostics",
    "repro.observability.analyze",
    "repro.observability.telemetry",
    "repro.datagen",
)

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.observability",
    "repro.serving",
)


def child(code: str):
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def denied_after(code: str, also=()):
    modules = child(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert "repro" in modules
    return [
        module for module in modules
        if any(module == d or module.startswith(d + ".") for d in DENY + also)
    ]


@pytest.fixture(scope="module")
def binomial_tsv(tmp_path_factory):
    """The CLI smoke input: 5,000 binomial rows, seed 11."""
    path = str(tmp_path_factory.mktemp("budget") / "serve-data.tsv")
    assert main(["generate", "binomial", "--rows", "5000", "--seed", "11",
                 "-o", path]) == 0
    return path


class TestImportBudget:
    @pytest.mark.parametrize(
        "code, also",
        [
            ("import repro", ()),
            ("import repro.cli\nrepro.cli.build_parser()", ()),
            # Misses compute on their connection's thread: no pool at all.
            (
                "from repro.serving import CubeServer, StoredCubeView, "
                "execute_query",
                ("concurrent.futures",),
            ),
            (
                "from repro.cli import main\n"
                "try:\n"
                "    main(['serve-cube', '--help'])\n"
                "except SystemExit:\n"
                "    pass",
                (),
            ),
            # A build's one parallel backend is threads, and no process
            # loads hashlib: the store takes BLAKE2b from _blake2.
            (
                "from repro.cli import main\n"
                "assert main(['cube', {data!r}, '--machines', '4']) == 0",
                ("hashlib", "_hashlib"),
            ),
        ],
        ids=["import-repro", "build-parser", "serving", "serve-cube-help",
             "cube-machines-4"],
    )
    def test_loads_nothing_on_the_deny_list(self, code, also, binomial_tsv):
        assert denied_after(code.format(data=binomial_tsv), also) == []

    def test_suite_report_loads_no_chart_or_trace_reader(self, tmp_path):
        """The suite section renders with the markdown table helper
        alone: no chart, no trace reader, no doctor."""
        perf = tmp_path / "suite.jsonl"
        perf.write_text(json.dumps({
            "workload": "build-dense", "failed": 0, "attempted": 1,
            "metrics": {"build_wall_s": {"value": 0.7, "unit": "s"}},
        }) + "\n")
        out = tmp_path / "report.md"
        assert denied_after(
            "from repro.cli import main\n"
            f"assert main(['report', '--perf-json', {str(perf)!r}, "
            f"'-o', {str(out)!r}]) == 0"
        ) == []
        assert "1 suite run(s)" in out.read_text()

    def test_parsing_argv_loads_no_engine_layer(self):
        modules = child(
            "import repro.cli, json, sys\n"
            "repro.cli.build_parser()\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('repro')]))"
        )
        assert sorted(modules) == [
            "repro", "repro._lazy", "repro.cli", "repro.engines"
        ]

    def test_serial_compute_never_loads_the_process_pool(self):
        denied = denied_after(
            "from repro import ClusterConfig, SPCube, gen_binomial\n"
            "run = SPCube(ClusterConfig(num_machines=3)).compute(\n"
            "    gen_binomial(200, 0.3, seed=1))\n"
            "assert run.cube.num_groups > 0"
        )
        assert [m for m in denied if not m.startswith("repro.")] == []

    def test_compute_and_store_write_load_no_hashlib(self, tmp_path):
        """No build loads ``hashlib`` (``CubeStore.open`` takes BLAKE2b
        from ``_blake2``); one that did would pay ~3 MB of peak RSS."""
        path = str(tmp_path / "cube.store")
        denied = denied_after(
            "from repro import ClusterConfig, SPCube, gen_binomial\n"
            "from repro.serving import CubeStore\n"
            "run = SPCube(ClusterConfig(num_machines=3)).compute(\n"
            "    gen_binomial(200, 0.3, seed=1))\n"
            f"assert CubeStore.write(run.cube, {path!r}, aggregate='count')",
            ("hashlib", "_hashlib"),
        )
        assert [m for m in denied if not m.startswith("repro.")] == []

    def test_parallel_compute_loads_no_process_pool(self):
        denied = denied_after(
            "from repro import ClusterConfig, SPCube, gen_binomial\n"
            "run = SPCube(ClusterConfig(num_machines=3, parallelism=2)).compute(\n"
            "    gen_binomial(200, 0.3, seed=1))\n"
            "assert {j.executor for j in run.metrics.jobs} == {'parallel'}"
        )
        assert [m for m in denied if not m.startswith("repro.")] == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackageApi:
    def test_every_export_is_its_submodules_object(self, package):
        module = importlib.import_module(package)
        submodules = [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(module.__path__)
            if info.name not in ("__main__", "cli")
        ]
        for name in module.__all__:
            if name == "__version__":
                continue
            value = getattr(module, name)
            assert any(
                getattr(sub, name, None) is value for sub in submodules
            ), name

    def test_dir_lists_exports_before_any_is_resolved(self, package):
        listed = child(
            f"import {package} as pkg, json\n"
            "listed = dir(pkg)\n"
            "assert set(pkg.__all__) <= set(listed), pkg.__all__\n"
            "print(json.dumps(listed))"
        )
        assert "__getattr__" in listed and listed == sorted(listed)

    def test_star_import_binds_every_export(self, package):
        module = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_attribute_names_itself(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec(f"from {package} import no_such_name", {})


def test_exports_pickle_by_their_defining_module():
    assert pickle.loads(pickle.dumps(repro.SPCube)) is repro.SPCube
    assert repro.SPCube.__module__ == "repro.core.spcube"


def _imported_modules(path):
    """Every module a source file imports, at any depth of its code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_serve_cube_is_the_one_http_server():
    package = Path(repro.__file__).parent
    importers = {"http.server": [], "socketserver": []}
    for path in sorted(package.rglob("*.py")):
        for module in _imported_modules(path):
            if module in importers:
                importers[module].append(
                    path.relative_to(package).as_posix()
                )
    assert importers == {
        "http.server": [],
        "socketserver": ["serving/server.py"],
    }
