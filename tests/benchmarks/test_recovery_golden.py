"""``BENCH_recovery.json`` is gated by equality, not by bands.

CI's ``golden`` job runs ``python benchmarks/golden.py`` and then
``git diff --exit-code`` over the golden files and EXPERIMENTS.md.  That
only works while the committed file is the writer's own output shape and
the sweeps are pure functions of (code, rows, seed); both are pinned
here at tier-1 cost, as are the recovery claims over the committed rows
and EXPERIMENTS.md's copy of the file's two tables.
"""

import re

from repro.analysis import format_recovery_tables
from repro.datagen import gen_zipf

from .conftest import ROOT


def test_committed_file_is_the_bench_output_at_its_constants(golden, recovery):
    assert list(recovery) == ["rows", "base_seed", "points", "node_points"]
    assert (recovery["rows"], recovery["base_seed"]) == (
        golden.RECOVERY_ROWS, golden.BASE_SEED,
    )
    assert len(recovery["points"]) == (
        len(golden.PAPER_ALGORITHMS) * len(golden.PRESSURES)
    )
    assert len(recovery["node_points"]) == (
        len(golden.PAPER_ALGORITHMS) * len(golden.NODE_PRESSURES) * 2
    )


def test_sweeps_are_pure_functions_of_their_input(golden):
    relation = gen_zipf(300, seed=9)
    crash = golden.crash_sweep(relation)
    assert crash == golden.crash_sweep(relation)
    assert any(row["killed_tasks"] for row in crash)
    nodes = golden.node_sweep(relation)
    assert nodes == golden.node_sweep(relation)
    assert any(row["nodes_lost"] for row in nodes)


def test_experiments_tables_are_the_rendered_golden_file(recovery):
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    tables = format_recovery_tables(recovery)
    assert sorted(tables) == ["node_points", "points"]
    for key, table in tables.items():
        block = re.search(
            rf"<!-- BEGIN recovery {key} -->\n(.*?)\n"
            rf"<!-- END recovery {key} -->",
            experiments, re.S,
        )
        assert block is not None, key
        assert block.group(1) == table, key


def test_pressure_costs_attempts_and_overhead(golden, recovery):
    """Clean runs lose nothing; a faulted run that finishes pays extra
    attempts and a strictly positive overhead.  Overhead is summed
    *machine* time across chains, which recover concurrently, so it may
    exceed the simulated wall time."""
    by_engine = {}
    for row in recovery["points"]:
        by_engine.setdefault(row["engine"], {})[row["pressure"]] = row
    for name, points in by_engine.items():
        clean = points[0.0]
        assert clean["attempts"] > 0
        assert clean["recovery_overhead_seconds"] == 0.0, name
        assert clean["killed_tasks"] == 0, name
        for pressure in golden.PRESSURES[1:]:
            row = points[pressure]
            if row["failed"]:
                continue
            assert row["attempts"] > clean["attempts"], (name, pressure)
            assert 0.0 < row["recovery_overhead_seconds"], (name, pressure)


def test_checkpoint_resumes_where_abort_stops(golden, recovery):
    """Same seed, same coins: a node loss that aborts the run without
    checkpoints is resumed with them."""
    by_key = {
        (row["engine"], row["node_pressure"], row["checkpointed"]): row
        for row in recovery["node_points"]
    }
    any_kill_fired = False
    for name in golden.PAPER_ALGORITHMS:
        for checkpointed in (True, False):
            calm = by_key[(name, 0.0, checkpointed)]
            assert calm["completed"], (name, checkpointed)
            assert calm["nodes_lost"] == 0, (name, checkpointed)
            assert calm["resumed_rounds"] == 0, (name, checkpointed)
        for pressure in golden.NODE_PRESSURES[1:]:
            ckpt = by_key[(name, pressure, True)]
            abort = by_key[(name, pressure, False)]
            if ckpt["nodes_lost"] == 0:
                continue
            any_kill_fired = True
            assert ckpt["completed"], (name, pressure)
            assert ckpt["resumed_rounds"] >= 1, (name, pressure)
            assert abort["nodes_lost"] >= 1, (name, pressure)
            assert not abort["completed"], (name, pressure)
            assert abort["resumed_rounds"] == 0, (name, pressure)
    # The sweep is vacuous unless at least one seeded kill fires.
    assert any_kill_fired
