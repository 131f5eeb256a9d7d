"""Smoke tests: every example script runs clean and prints what it promises."""

import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "42 c-groups" in out
        assert "(laptop, *, *) -> 3" in out
        assert "SP-Sketch size" in out

    def test_retail_sales(self):
        out = run_example("retail_sales.py")
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "aggregate comparison" in out

    def test_weblog_skew_analysis(self):
        out = run_example("weblog_skew_analysis.py", "3000")
        assert "true skewed c-groups" in out
        assert "SP-Sketch detection" in out
        assert "naive algorithm would ship" in out

    def test_distribution_comparison(self):
        out = run_example("distribution_comparison.py", "3000")
        assert "SP-Cube" in out and "Hive" in out
        assert "identical cubes" in out
