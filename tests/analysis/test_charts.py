"""ASCII chart rendering."""

import pytest

from repro.analysis import run_sweep
from repro.analysis.charts import ascii_chart, chart_figure
from repro.baselines import NaiveCube
from repro.core import SPCube
from repro.mapreduce import ClusterConfig

from ..conftest import make_random_relation


@pytest.fixture(scope="module")
def sweep():
    cluster = ClusterConfig(num_machines=3)
    workloads = [
        (100.0, make_random_relation(100, seed=1)),
        (300.0, make_random_relation(300, seed=2)),
        (500.0, make_random_relation(500, seed=3)),
    ]
    return run_sweep(
        "chart demo",
        "n",
        workloads,
        {"SP-Cube": lambda c: SPCube(c), "Naive": lambda c: NaiveCube(c)},
        cluster,
    )


class TestAsciiChart:
    def test_contains_title_and_legend(self, sweep):
        text = ascii_chart(sweep, "total_seconds", "running time")
        assert "running time" in text
        assert "SP-Cube" in text and "Naive" in text

    def test_glyphs_plotted(self, sweep):
        text = ascii_chart(sweep, "total_seconds", "t")
        body = "\n".join(line for line in text.splitlines() if "|" in line)
        assert "*" in body and "o" in body

    def test_dimensions_respected(self, sweep):
        text = ascii_chart(sweep, "total_seconds", "t", width=30, height=8)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == 8
        assert all(line.count("|") == 2 for line in rows)

    def test_axis_labels_present(self, sweep):
        text = ascii_chart(sweep, "total_seconds", "t")
        assert "100" in text and "500" in text  # x range

    def test_failed_points_dropped(self, sweep):
        sweep.points[-1].runs["Naive"].jobs[0].forced_failure = True
        try:
            text = ascii_chart(sweep, "total_seconds", "t", width=40)
            assert "Naive" in text  # curve still present with 2 points
        finally:
            sweep.points[-1].runs["Naive"].jobs[0].forced_failure = False

    def test_chart_figure_stacks(self, sweep):
        text = chart_figure(
            sweep,
            [("total_seconds", "time"), ("map_output_mb", "traffic")],
        )
        assert "time" in text and "traffic" in text
