"""``BENCH_figures.json`` holds the paper's shapes; EXPERIMENTS.md its tables.

``python benchmarks/golden.py`` writes the file and re-renders the
tables; CI's ``golden`` job reruns it and fails on any diff.  At tier-1
cost, these tests assert the paper's qualitative claims (who wins, where
Hive fails, how traffic compares) over the committed file, pin each
sweep as a pure function of its input at a few hundred rows, and
re-render each EXPERIMENTS.md table from the committed files.
"""

import re

import pytest

from repro.analysis import golden_tables

from .conftest import ROOT

TABLES = ["figure 4", "figure 5", "figure 6", "figure 7", "figure 8",
          "theory", "ablation grid", "ablation beta", "ablation combiner"]


def curves(figure, metric):
    """``{engine: [value at each x]}`` in sweep order."""
    out = {}
    for point in figure["points"]:
        out.setdefault(point["engine"], []).append(point[metric])
    return out


def final_times(figure):
    """``{engine: total_seconds at the largest x}``, failed runs left out."""
    last = figure["points"][-len(curves(figure, "failed")):]
    return {p["engine"]: p["total_seconds"] for p in last if not p["failed"]}


def theory_row(figures, claim):
    (row,) = [row for row in figures["theory"] if row["claim"] == claim]
    return row


# -- the file is the writer's output -------------------------------------------


def test_committed_file_is_the_writer_output_at_its_constants(golden, figures):
    assert list(figures) == ["figures", "theory", "ablations"]
    assert list(figures["figures"]) == list(golden.FIGURES)
    for key, figure in figures["figures"].items():
        x_label, panels, workloads = golden.FIGURES[key]
        xs = [x for x, _relation in workloads(1_000)]
        assert figure["x_label"] == x_label
        assert len(figure["inputs"]) == len(xs)
        assert [point["engine"] for point in figure["points"]] == (
            list(golden.PAPER_ALGORITHMS) * len(xs)
        )
        for point in figure["points"]:
            assert list(point) == ["x", "engine", *panels, "failed"]
    assert [row["variant"] for row in figures["ablations"]["grid"]] == list(
        golden.ABLATION_VARIANTS
    )
    assert figures["ablations"]["rows"] == golden.ABLATION_ROWS
    assert [row["scale"] for row in figures["ablations"]["beta"]] == list(
        golden.BETA_SCALES
    )


def test_figure_sweeps_are_pure_functions_of_their_input(golden):
    for key in golden.FIGURES:
        first = golden.figure(key, scale=200)
        assert first == golden.figure(key, scale=200), key
        assert any(point["total_seconds"] for point in first["points"])


def test_theory_runs_are_pure_functions_of_their_input(golden):
    assert golden.theory(scale=40) == golden.theory(scale=40)


def test_ablations_are_pure_functions_of_their_input(golden):
    assert golden.ablations(rows=300) == golden.ablations(rows=300)


# -- EXPERIMENTS.md is the rendered files --------------------------------------


def test_every_table_has_a_check(figures, recovery):
    assert list(golden_tables(figures, recovery)) == TABLES + [
        "recovery points", "recovery node_points",
    ]


@pytest.mark.parametrize("name", TABLES)
def test_experiments_table_is_the_rendered_golden_file(
    name, figures, recovery
):
    block = re.search(
        rf"<!-- BEGIN {name} -->\n(.*?)\n<!-- END {name} -->",
        (ROOT / "EXPERIMENTS.md").read_text(), re.S,
    )
    assert block is not None
    assert block.group(1) == golden_tables(figures, recovery)[name]


# -- Figures 4-8 ---------------------------------------------------------------


def test_figure4_spcube_fastest_and_ships_least(figures):
    fig = figures["figures"]["4"]
    times = final_times(fig)
    assert times["SP-Cube"] < times["Pig"]
    assert times["SP-Cube"] < times["Hive"]
    traffic = {e: c[-1] for e, c in curves(fig, "map_output_bytes").items()}
    assert traffic["SP-Cube"] < traffic["Pig"]
    assert traffic["SP-Cube"] < traffic["Hive"]
    # Paper: 5-6x less traffic at the top size; require at least 2x here.
    assert traffic["Pig"] > 2 * traffic["SP-Cube"]
    # SP-Cube's time grows with data size.
    spcube = curves(fig, "total_seconds")["SP-Cube"]
    assert spcube == sorted(spcube)


def test_figure5_hive_maps_slowest_and_the_sketch_stays_tiny(figures):
    fig = figures["figures"]["5"]
    times = final_times(fig)
    assert times["SP-Cube"] < times["Pig"]
    assert times["SP-Cube"] < times["Hive"]
    # 5b: Hive's map time is the worst at the largest size.
    map_times = curves(fig, "avg_map_seconds")
    assert map_times["Hive"][-1] > map_times["SP-Cube"][-1]
    # 5c: the sketch grows (mildly) with n and stays tiny vs the input.
    sketch = curves(fig, "sketch_bytes")["SP-Cube"]
    assert sketch[-1] >= sketch[0]
    assert sketch[-1] < fig["inputs"][-1]["bytes"] / 20


def test_figure6_hive_stuck_from_p40_and_spcube_stable(figures):
    fig = figures["figures"]["6"]
    hive_failed = {
        p["x"]: p["failed"] for p in fig["points"] if p["engine"] == "Hive"
    }
    # The paper's exact boundary: Hive runs for p <= 0.25, stuck from 0.4.
    assert hive_failed == {0: False, 10: False, 25: False,
                           40: True, 60: True, 75: True}
    assert not any(curves(fig, "failed")["SP-Cube"])
    point = {(p["engine"], p["x"]): p for p in fig["points"]}
    for p, failed in hive_failed.items():
        spcube = point["SP-Cube", p]
        # SP-Cube ships least wherever Hive completes, and beats Hive's
        # clock at p <= 25.
        if not failed:
            for engine in ("Pig", "Hive"):
                assert spcube["map_output_bytes"] < point[engine, p]["map_output_bytes"]
        if p <= 25:
            assert spcube["total_seconds"] < point["Hive", p]["total_seconds"]
    times = curves(fig, "total_seconds")
    assert max(times["SP-Cube"]) < 1.5 * min(times["SP-Cube"])
    for pig, spcube in zip(times["Pig"], times["SP-Cube"]):
        assert spcube < pig
    # 6b: Pig's and SP-Cube's traffic shrinks as p grows.
    traffic = curves(fig, "map_output_bytes")
    for engine in ("Pig", "SP-Cube"):
        assert traffic[engine][-1] < traffic[engine][0]
    # 6c: the sketch stays small throughout (tens of KB at this scale).
    assert max(curves(fig, "sketch_bytes")["SP-Cube"]) < 100_000


def test_figure7_spcube_ships_a_multiple_less(figures):
    fig = figures["figures"]["7"]
    times = final_times(fig)
    assert times["SP-Cube"] < times["Pig"]
    assert times["SP-Cube"] < times["Hive"]
    traffic = {e: c[-1] for e, c in curves(fig, "map_output_bytes").items()}
    assert traffic["Pig"] > 1.5 * traffic["SP-Cube"]
    assert traffic["Hive"] > 1.5 * traffic["SP-Cube"]
    # Nobody fails on the Zipfian data.
    assert not any(point["failed"] for point in fig["points"])


def test_figure8_spcube_ships_least_at_every_size(figures):
    fig = figures["figures"]["8"]
    times = final_times(fig)
    assert times["SP-Cube"] < times["Pig"]
    assert times["SP-Cube"] < times["Hive"]
    for curve in curves(fig, "total_seconds").values():
        assert curve[-1] > curve[0]
    traffic = curves(fig, "map_output_bytes")
    for spcube, pig, hive in zip(
        traffic["SP-Cube"], traffic["Pig"], traffic["Hive"]
    ):
        assert spcube <= pig and spcube <= hive


# -- Section 5.2 theory --------------------------------------------------------


def test_theorem_53_worst_case(figures):
    """Emissions per tuple reach C(d, d/2+1) on the adversarial relation."""
    row = theory_row(figures, "Thm 5.3")
    assert row["emissions_per_tuple"] >= 0.9 * row["predicted_per_tuple"]
    assert row["records"] <= row["record_bound"]


def test_prop55_monotonic_traffic(figures):
    """gen-binomial is skewness-monotonic and ships O(d) per tuple."""
    row = theory_row(figures, "Prop 5.5")
    assert row["monotonic"] is True
    assert row["records"] <= row["record_bound"]


def test_prop56_independent_attributes(figures):
    """gen-zipf is not monotonic, yet ships O(d^2) per tuple."""
    row = theory_row(figures, "Prop 5.6")
    assert row["violations"] > 0
    assert row["records"] <= row["record_bound"]


def test_prop52_skew_traffic_linear(figures):
    """At most one partial aggregate per skewed group per mapper."""
    row = theory_row(figures, "Prop 5.2")
    assert row["records"] <= row["record_bound"]


def test_real_distributions_far_from_worst_case(figures):
    row = theory_row(figures, "real data")
    assert row["emissions_per_tuple"] < row["naive_per_tuple"] / 2


# -- ablations -----------------------------------------------------------------


def test_ablation_grid(figures):
    grid = {row["variant"]: row for row in figures["ablations"]["grid"]}
    full = grid["full SP-Cube"]
    # All variants still compute the same cube.
    assert {row["cube_crc32"] for row in grid.values()} == {full["cube_crc32"]}
    # Covering is the traffic saver (Observation 2.6).
    assert (grid["no ancestor covering"]["intermediate_records"]
            > full["intermediate_records"])
    # Without map partial aggregation every tuple's base group is the
    # apex: one reducer absorbs the relation and its straggle dominates
    # the round (the balance ratio degenerates to 1.0, one reducer being
    # active; the absolute straggler tells the story).
    no_agg = grid["no map partial agg"]
    assert (no_agg["max_reducer_input_records"]
            > 3 * full["max_reducer_input_records"])
    assert no_agg["total_seconds"] > 2 * full["total_seconds"]


def test_ablation_beta_threshold(figures):
    """Small beta bloats the sketch, large beta misses true skews."""
    beta = figures["ablations"]["beta"]
    assert beta[0]["recall"] >= beta[-1]["recall"]
    assert beta[0]["sketch_bytes"] >= beta[-1]["sketch_bytes"]
    # The paper's beta (scale 1.0) finds every true skew here.
    (paper,) = [row for row in beta if row["scale"] == 1.0]
    assert paper["recall"] == 1.0


def test_ablation_naive_combiner(figures):
    """Combiners help, but the uniform tail resists them while covering
    collapses it: SP-Cube still ships less."""
    shipped = {
        row["engine"]: row["intermediate_records"]
        for row in figures["ablations"]["combiner"]
    }
    assert shipped["naive + combiner"] < shipped["naive"]
    assert shipped["SP-Cube"] < shipped["naive + combiner"]
