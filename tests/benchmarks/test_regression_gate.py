"""The bench regression gate: tolerance bands, pass/fail wiring, CLI."""

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

_GATE_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "regression_gate.py"
)
# benchmarks/ is not a package (pytest collects it separately with its own
# deps); load the gate straight from its file so the tier-1 suite covers it.
# The module must be in sys.modules before exec: dataclass field resolution
# looks its defining module up there.
_spec = importlib.util.spec_from_file_location("regression_gate", _GATE_PATH)
gate_mod = importlib.util.module_from_spec(_spec)
sys.modules["regression_gate"] = gate_mod
_spec.loader.exec_module(gate_mod)


def perf_report(**overrides):
    report = {
        "workload": {"dataset": "gen_binomial", "rows": 1000, "skew": 0.4,
                     "seed": 1},
        "parallelism": 4,
        "serial_wall_seconds": 10.0,
        "cubes_identical": True,
        "output_groups": 5000,
        "hot_path": {"stable_hash_speedup": 2.0},
    }
    report.update(overrides)
    return report


def recovery_report(points=None, rows=1000, base_seed=7):
    if points is None:
        points = [
            {"engine": "SP-Cube", "pressure": 0.0, "slowdown": 1.0,
             "failed": False},
            {"engine": "SP-Cube", "pressure": 0.1, "slowdown": 1.5,
             "failed": False},
        ]
    return {"rows": rows, "base_seed": base_seed, "points": points}


def with_slowdown(report, pressure, slowdown, failed=False):
    fresh = copy.deepcopy(report)
    for point in fresh["points"]:
        if point["pressure"] == pressure:
            point["slowdown"] = slowdown
            point["failed"] = failed
    return fresh


class TestPerfGate:
    def test_identical_artifacts_pass(self):
        assert gate_mod.compare_perf(perf_report(), perf_report()) == []

    def test_cube_divergence_fails(self):
        fresh = perf_report(cubes_identical=False)
        violations = gate_mod.compare_perf(perf_report(), fresh)
        assert any("no longer identical" in v for v in violations)

    def test_hot_path_collapse_fails(self):
        fresh = perf_report(hot_path={"stable_hash_speedup": 0.5})
        violations = gate_mod.compare_perf(perf_report(), fresh)
        assert any("stable_hash_speedup" in v for v in violations)

    def test_hot_path_within_band_passes(self):
        # 2.0 -> 1.2 is a 40% drop, inside the default 50% band.
        fresh = perf_report(hot_path={"stable_hash_speedup": 1.2})
        assert gate_mod.compare_perf(perf_report(), fresh) == []

    def test_wall_clock_checked_only_on_same_workload(self):
        slow = perf_report(serial_wall_seconds=100.0)
        violations = gate_mod.compare_perf(perf_report(), slow)
        assert any("wall clock" in v for v in violations)
        # Different row count: seconds are not comparable, no violation.
        different = perf_report(
            serial_wall_seconds=100.0,
            workload={"dataset": "gen_binomial", "rows": 60_000,
                      "skew": 0.4, "seed": 1},
        )
        assert gate_mod.compare_perf(perf_report(), different) == []

    def test_output_groups_drift_fails(self):
        fresh = perf_report(output_groups=4999)
        violations = gate_mod.compare_perf(perf_report(), fresh)
        assert any("output groups" in v for v in violations)

    def test_speedup_collapse_fails_on_multicore_artifacts(self):
        baseline = perf_report(speedup=3.0, cpu_count=8)
        fresh = perf_report(speedup=0.9, cpu_count=8)
        violations = gate_mod.compare_perf(baseline, fresh)
        assert any("parallel speedup" in v for v in violations)

    def test_speedup_within_band_passes_on_multicore_artifacts(self):
        # 3.0 -> 1.8 is a 40% drop, inside the default 50% band.
        baseline = perf_report(speedup=3.0, cpu_count=8)
        fresh = perf_report(speedup=1.8, cpu_count=8)
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_speedup_informational_on_single_core(self):
        # A one-core container cannot beat the serial executor; the
        # collapse must be reported as a note, never as a violation.
        baseline = perf_report(speedup=3.0, cpu_count=8)
        fresh = perf_report(speedup=0.4, cpu_count=1)
        notes = []
        violations = gate_mod.compare_perf(baseline, fresh, notes=notes)
        assert violations == []
        assert any("informational" in note for note in notes)

    def test_speedup_informational_on_single_core_baseline(self):
        # The committed single-core baseline must not mask (or flag)
        # executor changes measured on multi-core runners.
        baseline = perf_report(speedup=0.75, cpu_count=1)
        fresh = perf_report(speedup=0.5, cpu_count=8)
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert notes

    def test_speedup_skipped_without_cpu_count(self):
        # Artifacts written before cpu_count existed are treated as
        # single-core: informational, never gated.
        baseline = perf_report(speedup=3.0)
        fresh = perf_report(speedup=0.4)
        assert gate_mod.compare_perf(baseline, fresh) == []


class TestTelemetryBand:
    def test_planted_overhead_blowup_fails(self):
        """The acceptance case: a planted overhead blowup trips the band."""
        baseline = perf_report(telemetry={"overhead_ratio": 1.02})
        # Ceiling for 1.02x baseline: 1.02 * 1.15 + 0.05 = 1.223x.
        fresh = perf_report(telemetry={"overhead_ratio": 1.5})
        violations = gate_mod.compare_perf(baseline, fresh)
        assert len(violations) == 1
        assert "telemetry overhead" in violations[0]
        assert "1.500x" in violations[0]

    def test_ratio_within_band_passes(self):
        baseline = perf_report(telemetry={"overhead_ratio": 1.02})
        fresh = perf_report(telemetry={"overhead_ratio": 1.15})
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_old_baseline_without_telemetry_is_informational(self):
        # Baselines written before the telemetry twin lack the key; the
        # fresh ratio must print as a note, never fail the gate.
        baseline = perf_report()
        fresh = perf_report(telemetry={"overhead_ratio": 2.0})
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert any("telemetry" in note and "informational" in note
                   for note in notes)

    def test_fresh_without_telemetry_is_skipped(self):
        baseline = perf_report(telemetry={"overhead_ratio": 1.02})
        fresh = perf_report()
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert notes == []


class TestLineageBand:
    """The flight-recorder twin gets the telemetry band, applied to its
    own (much higher by design) committed ratio."""

    def test_planted_overhead_blowup_fails(self):
        baseline = perf_report(lineage={"overhead_ratio": 1.36})
        # Ceiling for 1.36x baseline: 1.36 * 1.15 + 0.05 = 1.614x.
        fresh = perf_report(lineage={"overhead_ratio": 1.8})
        violations = gate_mod.compare_perf(baseline, fresh)
        assert len(violations) == 1
        assert "lineage overhead" in violations[0]
        assert "1.800x" in violations[0]

    def test_ratio_within_band_passes(self):
        baseline = perf_report(lineage={"overhead_ratio": 1.36})
        fresh = perf_report(lineage={"overhead_ratio": 1.55})
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_old_baseline_without_lineage_is_informational(self):
        baseline = perf_report(telemetry={"overhead_ratio": 1.02})
        fresh = perf_report(
            telemetry={"overhead_ratio": 1.02},
            lineage={"overhead_ratio": 1.4},
        )
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert any("lineage" in note and "informational" in note
                   for note in notes)

    def test_both_twins_can_fail_together(self):
        baseline = perf_report(
            telemetry={"overhead_ratio": 1.02},
            lineage={"overhead_ratio": 1.36},
        )
        fresh = perf_report(
            telemetry={"overhead_ratio": 1.5},
            lineage={"overhead_ratio": 2.0},
        )
        violations = gate_mod.compare_perf(baseline, fresh)
        assert len(violations) == 2
        assert any("telemetry overhead" in v for v in violations)
        assert any("lineage overhead" in v for v in violations)

    def test_custom_tolerances(self):
        baseline = perf_report(telemetry={"overhead_ratio": 1.0})
        fresh = perf_report(telemetry={"overhead_ratio": 1.1})
        tight = gate_mod.Tolerances(telemetry=0.01, telemetry_slack=0.0)
        assert gate_mod.compare_perf(baseline, fresh, tight) != []
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_cli_telemetry_tolerance_flag(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(
            perf_report(telemetry={"overhead_ratio": 1.0})
        ))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(
            perf_report(telemetry={"overhead_ratio": 1.1})
        ))
        relaxed = gate_mod.main(
            ["--perf-baseline", str(base), "--perf-fresh", str(fresh)]
        )
        assert relaxed == 0
        tight = gate_mod.main(
            ["--perf-baseline", str(base), "--perf-fresh", str(fresh),
             "--telemetry-tolerance", "0.01", "--telemetry-slack", "0.0"]
        )
        assert tight == 1
        assert "telemetry overhead" in capsys.readouterr().out


def serving_section(**overrides):
    section = {
        "workload": {"rows": 20_000, "requests": 400, "clients": 4,
                     "seed": 600, "skew": 0.4},
        "server": {"workers": 4, "queue_depth": 16, "deadline": 10.0},
        "throughput_qps": 150.0,
        "p50_latency_ms": 15.0,
        "p99_latency_ms": 250.0,
        "answered": 400,
        "shed": 0,
        "deadline_exceeded": 0,
        "errors": 0,
        "cache_hit_rate": 0.88,
    }
    section.update(overrides)
    return section


class TestServingBand:
    def test_identical_serving_sections_pass(self):
        baseline = perf_report(serving=serving_section())
        fresh = perf_report(serving=serving_section())
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_fresh_errors_fail_unconditionally(self):
        # Even with a mismatched setup (bands skipped), failed requests
        # are a correctness signal and must trip the gate.
        baseline = perf_report(serving=serving_section())
        fresh = perf_report(serving=serving_section(
            errors=3,
            workload={"rows": 99, "requests": 1, "clients": 1,
                      "seed": 1, "skew": 0.0},
        ))
        violations = gate_mod.compare_perf(baseline, fresh)
        assert len(violations) == 1
        assert "3 request(s) failed" in violations[0]

    def test_new_shedding_fails(self):
        baseline = perf_report(serving=serving_section())
        fresh = perf_report(serving=serving_section(shed=7))
        violations = gate_mod.compare_perf(baseline, fresh)
        assert any("7 request(s) shed" in v for v in violations)

    def test_planted_p99_blowup_fails(self):
        """The acceptance case: a planted latency blowup trips the band."""
        baseline = perf_report(serving=serving_section())
        # Ceiling for 250 ms baseline: 250 * 1.15 + 150 = 437.5 ms.
        fresh = perf_report(serving=serving_section(p99_latency_ms=500.0))
        violations = gate_mod.compare_perf(baseline, fresh)
        assert len(violations) == 1
        assert "p99 latency 500.0 ms" in violations[0]

    def test_p99_within_band_passes(self):
        baseline = perf_report(serving=serving_section())
        fresh = perf_report(serving=serving_section(p99_latency_ms=430.0))
        assert gate_mod.compare_perf(baseline, fresh) == []

    def test_throughput_collapse_fails(self):
        baseline = perf_report(serving=serving_section())
        # Floor for 150 qps baseline: 150 * 0.85 = 127.5 qps.
        fresh = perf_report(serving=serving_section(throughput_qps=100.0))
        violations = gate_mod.compare_perf(baseline, fresh)
        assert any("throughput fell" in v for v in violations)

    def test_cache_hit_rate_collapse_fails(self):
        baseline = perf_report(serving=serving_section())
        # Floor for 0.88 baseline: 0.88 - 0.15 = 0.73.
        fresh = perf_report(serving=serving_section(cache_hit_rate=0.5))
        violations = gate_mod.compare_perf(baseline, fresh)
        assert any("cache hit rate fell" in v for v in violations)

    def test_old_baseline_without_serving_is_informational(self):
        baseline = perf_report()
        fresh = perf_report(serving=serving_section())
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert any("serving bench" in note and "informational" in note
                   for note in notes)

    def test_mismatched_setup_skips_load_bands(self):
        # A different offered load makes shed/latency/qps incomparable:
        # note them, gate nothing (errors excepted, tested above).
        baseline = perf_report(serving=serving_section())
        fresh = perf_report(serving=serving_section(
            p99_latency_ms=9000.0,
            throughput_qps=1.0,
            shed=50,
            server={"workers": 1, "queue_depth": 0, "deadline": 1.0},
        ))
        notes = []
        assert gate_mod.compare_perf(baseline, fresh, notes=notes) == []
        assert any("skipped" in note for note in notes)

    def test_cli_serving_tolerance_flags(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(perf_report(serving=serving_section())))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(
            perf_report(serving=serving_section(p99_latency_ms=300.0))
        ))
        relaxed = gate_mod.main(
            ["--perf-baseline", str(base), "--perf-fresh", str(fresh)]
        )
        assert relaxed == 0
        tight = gate_mod.main(
            ["--perf-baseline", str(base), "--perf-fresh", str(fresh),
             "--serving-tolerance", "0.01", "--serving-slack-ms", "0.0"]
        )
        assert tight == 1
        assert "p99 latency" in capsys.readouterr().out


class TestRecoveryGate:
    def test_identical_artifacts_pass(self):
        assert (
            gate_mod.compare_recovery(recovery_report(), recovery_report())
            == []
        )

    def test_synthetic_slowdown_beyond_tolerance_fails(self):
        """The acceptance case: a planted >tolerance slowdown trips it."""
        baseline = recovery_report()
        # Ceiling for 1.5x baseline: 1.5 * 1.5 + 0.5 = 2.75x.
        fresh = with_slowdown(baseline, pressure=0.1, slowdown=3.5)
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert len(violations) == 1
        assert "slowdown" in violations[0]
        assert "3.50x" in violations[0]

    def test_slowdown_within_tolerance_passes(self):
        baseline = recovery_report()
        fresh = with_slowdown(baseline, pressure=0.1, slowdown=2.5)
        assert gate_mod.compare_recovery(baseline, fresh) == []

    def test_new_failure_fails(self):
        baseline = recovery_report()
        fresh = with_slowdown(
            baseline, pressure=0.1, slowdown=1.0, failed=True
        )
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert any("now fails" in v for v in violations)

    def test_missing_point_fails(self):
        baseline = recovery_report()
        fresh = recovery_report(points=baseline["points"][:1])
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert any("disappeared" in v for v in violations)

    def test_different_workload_skips_slowdown_bands(self):
        baseline = recovery_report()
        fresh = with_slowdown(
            recovery_report(rows=4000), pressure=0.1, slowdown=9.0
        )
        assert gate_mod.compare_recovery(baseline, fresh) == []

    def test_custom_tolerances(self):
        baseline = recovery_report()
        fresh = with_slowdown(baseline, pressure=0.1, slowdown=2.5)
        tight = gate_mod.Tolerances(slowdown=0.1, slowdown_slack=0.0)
        assert gate_mod.compare_recovery(baseline, fresh, tight) != []


def node_point(**overrides):
    point = {
        "engine": "SP-Cube", "node_pressure": 0.5, "checkpointed": True,
        "total_seconds": 200.0, "nodes_lost": 2, "resumed_rounds": 2,
        "recovery_overhead_seconds": 150.0, "completed": True,
        "failed": False,
    }
    point.update(overrides)
    return point


class TestNodePointsGate:
    def _report(self, node_points, rows=1000):
        report = recovery_report(rows=rows)
        report["node_points"] = node_points
        return report

    def test_identical_node_points_pass(self):
        report = self._report([node_point()])
        assert gate_mod.compare_recovery(report, report) == []

    def test_old_baseline_without_node_points_is_tolerated(self):
        # Baselines written before the node sweep lack the key entirely;
        # the fresh artifact carrying it must not trip the gate (and the
        # reverse pairing must not either).
        old = recovery_report()
        new = self._report([node_point()])
        assert gate_mod.compare_recovery(old, new) == []
        assert gate_mod.compare_recovery(new, old) == []

    def test_completed_point_now_aborting_fails(self):
        baseline = self._report([node_point()])
        fresh = self._report([node_point(completed=False)])
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert any("now aborts" in v for v in violations)

    def test_loss_counter_drift_fails_on_same_workload(self):
        baseline = self._report([node_point()])
        fresh = self._report([node_point(nodes_lost=3)])
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert any("nodes_lost changed 2 -> 3" in v for v in violations)

    def test_counters_skipped_across_workloads(self):
        baseline = self._report([node_point()])
        fresh = self._report(
            [node_point(nodes_lost=3, resumed_rounds=0)], rows=4000
        )
        assert gate_mod.compare_recovery(baseline, fresh) == []

    def test_missing_node_point_fails(self):
        baseline = self._report(
            [node_point(), node_point(checkpointed=False, completed=False)]
        )
        fresh = self._report([node_point()])
        violations = gate_mod.compare_recovery(baseline, fresh)
        assert any("disappeared" in v and "abort" in v for v in violations)


class TestGateCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", recovery_report())
        fresh = self._write(tmp_path, "fresh.json", recovery_report())
        code = gate_mod.main(
            ["--recovery-baseline", base, "--recovery-fresh", fresh]
        )
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", recovery_report())
        fresh = self._write(
            tmp_path,
            "fresh.json",
            with_slowdown(recovery_report(), pressure=0.1, slowdown=4.0),
        )
        code = gate_mod.main(
            ["--recovery-baseline", base, "--recovery-fresh", fresh]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_unpaired_artifacts_rejected(self, tmp_path):
        base = self._write(tmp_path, "base.json", recovery_report())
        with pytest.raises(SystemExit):
            gate_mod.main(["--recovery-baseline", base])

    def test_nothing_to_compare_rejected(self):
        with pytest.raises(SystemExit):
            gate_mod.main([])

    def test_committed_baselines_self_compare(self, capsys):
        """The repo's own artifacts must pass against themselves."""
        root = _GATE_PATH.parents[1]
        perf = str(root / "BENCH_perf.json")
        recovery = str(root / "BENCH_recovery.json")
        code = gate_mod.main(
            ["--perf-baseline", perf, "--perf-fresh", perf,
             "--recovery-baseline", recovery, "--recovery-fresh", recovery]
        )
        assert code == 0
