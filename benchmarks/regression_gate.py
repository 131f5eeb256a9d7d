"""Bench regression gate: diff fresh bench JSON against committed baselines.

The perf bench (``test_perf_wallclock.py``) and the recovery bench
(``test_recovery_cost.py``) each write a JSON artifact (``BENCH_perf.json``
/ ``BENCH_recovery.json``).  CI runs the benches on every push; this gate
compares the fresh artifacts against the committed baselines and fails the
build when a change regresses past the tolerance bands.

What is compared, and why the bands are where they are:

* **Correctness flags — zero tolerance.**  ``cubes_identical`` must stay
  true and a recovery point that completed at the baseline must not start
  failing: these are bit-level invariants, not measurements, so any drift
  is a bug.  The node sweep (``node_points``) gets the same treatment —
  a checkpointed run that survived a node loss must keep surviving, and
  on an identical workload the seeded loss/resume counts must not move.
  Artifacts written before the node sweep existed simply lack the key;
  the gate compares node points only when *both* artifacts carry them,
  so old baselines never trip on new fields.
* **Ratio metrics — wide bands.**  Hot-path speedups (fast path vs legacy
  within one process) and recovery slowdowns (faulted vs healthy run of
  the same engine) are self-normalizing, so they transfer across machines
  — but both numerators and denominators are wall-clock samples on shared
  CI runners, so they still jitter.  Default bands: a hot-path speedup may
  drop to 50% of the committed value before the gate trips
  (``--hot-path-tolerance 0.5``), and a recovery slowdown may exceed the
  committed one by 50% plus an absolute slack of 0.5
  (``--slowdown-tolerance 0.5``).  The telemetry overhead ratio
  (telemetry-on wall over telemetry-off wall, same serial workload) gets
  a tighter band — 15% plus 0.05 slack — because both halves of the twin
  run back-to-back in one process, so runner jitter largely cancels.
  The lineage overhead ratio (flight recorder + watchdog on vs off, same
  twin construction) gets the identical 15% + 0.05 band: the ratio runs
  well above 1.0 by design (every shuffled key is classified to its
  cuboid), so only drift against the committed value is a finding.
  Baselines that predate either twin lack the key and are skipped
  (a fresh-only ratio prints as an informational note).
* **Serving bench — +15% band, same setup only.**  The closed-loop
  serving bench (``serving_bench.py``) records p99 latency, throughput
  and cache hit rate under ``serving``; when both artifacts carry the
  section *and* describe the same workload + server configuration, p99
  may exceed the baseline by 15% plus an absolute 150 ms slack,
  throughput may fall to 85%, and the hit rate may drop by at most
  0.15 absolute.  Failed requests in the fresh bench trip the gate
  unconditionally, and shedding at a load the baseline served cleanly
  is a violation — admission control getting tighter is a regression,
  not jitter.
* **Absolute wall-clock — only on identical workloads.**  Seconds are
  meaningless across different row counts, so serial wall time and output
  group counts are checked only when the fresh artifact describes the
  *same* workload (rows/dataset/skew/seed and parallelism for perf; rows
  and base seed for recovery).  CI runs smaller workloads than the
  committed baselines, so these checks are usually skipped there and bite
  when someone regenerates a baseline locally.

Usage (any pair may be omitted)::

    python benchmarks/regression_gate.py \
        --perf-baseline BENCH_perf.json --perf-fresh fresh/BENCH_perf.json \
        --recovery-baseline BENCH_recovery.json \
        --recovery-fresh fresh/BENCH_recovery.json

Exit status 0 when every comparison is inside its band, 1 otherwise (the
violations are listed on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: See the module docstring for the reasoning behind each default band.
DEFAULT_WALL_TOLERANCE = 0.35
DEFAULT_HOT_PATH_TOLERANCE = 0.5
DEFAULT_SLOWDOWN_TOLERANCE = 0.5
DEFAULT_SLOWDOWN_SLACK = 0.5
DEFAULT_TELEMETRY_TOLERANCE = 0.15
DEFAULT_TELEMETRY_SLACK = 0.05
DEFAULT_SERVING_TOLERANCE = 0.15
#: Absolute p99 slack in milliseconds: tail latencies at smoke load sit
#: in the low hundreds of ms, where scheduler hiccups on a shared runner
#: move the p99 additively, not proportionally.
DEFAULT_SERVING_SLACK_MS = 150.0


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bands for every gated comparison."""

    #: Fresh serial wall seconds may exceed baseline by this fraction
    #: (same-workload runs only).
    wall: float = DEFAULT_WALL_TOLERANCE
    #: Fresh hot-path speedup may drop to ``(1 - hot_path)`` of baseline.
    hot_path: float = DEFAULT_HOT_PATH_TOLERANCE
    #: Fresh recovery slowdown may exceed baseline by this fraction...
    slowdown: float = DEFAULT_SLOWDOWN_TOLERANCE
    #: ...plus this absolute slack (ratios near 1.0 jitter additively).
    slowdown_slack: float = DEFAULT_SLOWDOWN_SLACK
    #: Fresh telemetry on/off wall ratio may exceed baseline by this
    #: fraction plus ``telemetry_slack`` (same additive-jitter argument
    #: as slowdowns: the ratio hovers near 1.0).
    telemetry: float = DEFAULT_TELEMETRY_TOLERANCE
    telemetry_slack: float = DEFAULT_TELEMETRY_SLACK
    #: Serving bench (same workload + server config only): fresh p99 may
    #: exceed baseline by this fraction plus ``serving_slack_ms``
    #: milliseconds, throughput may fall to ``(1 - serving)`` of
    #: baseline, and the cache hit rate may drop by at most ``serving``
    #: absolute.
    serving: float = DEFAULT_SERVING_TOLERANCE
    serving_slack_ms: float = DEFAULT_SERVING_SLACK_MS


def _same_perf_workload(baseline: Dict, fresh: Dict) -> bool:
    return (
        baseline.get("workload") == fresh.get("workload")
        and baseline.get("parallelism") == fresh.get("parallelism")
    )


def compare_perf(
    baseline: Dict,
    fresh: Dict,
    tolerances: Tolerances = Tolerances(),
    notes: Optional[List[str]] = None,
) -> List[str]:
    """Violations of the perf bands (empty list = gate passes).

    ``notes``, when provided, collects informational lines that are
    printed but never fail the gate — currently the parallel-vs-serial
    ``speedup`` on single-core artifacts, where a process pool cannot
    beat the serial executor no matter how good the IPC path is.
    """
    violations: List[str] = []

    if baseline.get("cubes_identical") and not fresh.get("cubes_identical"):
        violations.append(
            "perf: serial and parallel cubes are no longer identical"
        )

    base_hot = baseline.get("hot_path", {})
    fresh_hot = fresh.get("hot_path", {})
    metric = "stable_hash_speedup"
    base_value = base_hot.get(metric)
    fresh_value = fresh_hot.get(metric)
    if base_value is not None and fresh_value is not None:
        floor = base_value * (1.0 - tolerances.hot_path)
        if fresh_value < floor:
            violations.append(
                f"perf: hot-path {metric} fell to {fresh_value:.2f}x "
                f"(baseline {base_value:.2f}x, floor {floor:.2f}x)"
            )

    if _same_perf_workload(baseline, fresh):
        base_wall = baseline.get("serial_wall_seconds")
        fresh_wall = fresh.get("serial_wall_seconds")
        if base_wall and fresh_wall:
            ceiling = base_wall * (1.0 + tolerances.wall)
            if fresh_wall > ceiling:
                violations.append(
                    f"perf: serial wall clock {fresh_wall:.1f}s exceeds "
                    f"{ceiling:.1f}s (baseline {base_wall:.1f}s "
                    f"+{tolerances.wall:.0%})"
                )
        if (
            baseline.get("output_groups") is not None
            and fresh.get("output_groups") != baseline.get("output_groups")
        ):
            violations.append(
                f"perf: output groups changed "
                f"{baseline['output_groups']} -> {fresh.get('output_groups')} "
                "on an identical workload"
            )
        base_speedup = baseline.get("speedup")
        fresh_speedup = fresh.get("speedup")
        if base_speedup and fresh_speedup:
            # Parallel-vs-serial speedup only means anything when both
            # artifacts had cores to parallelize across.  A single-core
            # run measures pure pool overhead, so gating on it would let
            # a single-core baseline mask a real executor regression on
            # multi-core runners — and falsely flag multi-core baselines
            # when CI lands on a one-core container.  Artifacts written
            # before cpu_count existed are treated as single-core.
            if (
                baseline.get("cpu_count", 1) > 1
                and fresh.get("cpu_count", 1) > 1
            ):
                floor = base_speedup * (1.0 - tolerances.hot_path)
                if fresh_speedup < floor:
                    violations.append(
                        f"perf: parallel speedup fell to "
                        f"{fresh_speedup:.2f}x (baseline "
                        f"{base_speedup:.2f}x, floor {floor:.2f}x)"
                    )
            elif notes is not None:
                notes.append(
                    f"perf: speedup {fresh_speedup:.2f}x vs baseline "
                    f"{base_speedup:.2f}x is informational "
                    f"(cpu_count {baseline.get('cpu_count', 1)} -> "
                    f"{fresh.get('cpu_count', 1)}; need >1 on both "
                    "to gate)"
                )

    # Telemetry overhead is a self-normalizing ratio (telemetry-on wall
    # over telemetry-off wall of the same serial run), so it transfers
    # across machines like the other ratio metrics.  Artifacts written
    # before the telemetry twin existed lack the key; the band applies
    # only when both artifacts carry it, so old baselines never trip —
    # a fresh-only ratio is reported as an informational note instead.
    for twin in ("telemetry", "lineage"):
        base_ratio = baseline.get(twin, {}).get("overhead_ratio")
        fresh_ratio = fresh.get(twin, {}).get("overhead_ratio")
        if base_ratio is not None and fresh_ratio is not None:
            ceiling = (
                base_ratio * (1.0 + tolerances.telemetry)
                + tolerances.telemetry_slack
            )
            if fresh_ratio > ceiling:
                violations.append(
                    f"perf: {twin} overhead ratio {fresh_ratio:.3f}x "
                    f"exceeds {ceiling:.3f}x (baseline {base_ratio:.3f}x)"
                )
        elif fresh_ratio is not None and notes is not None:
            notes.append(
                f"perf: {twin} overhead ratio {fresh_ratio:.3f}x is "
                f"informational (baseline predates the {twin} twin)"
            )

    violations.extend(
        _compare_serving(baseline, fresh, tolerances, notes)
    )
    return violations


def _compare_serving(
    baseline: Dict,
    fresh: Dict,
    tolerances: Tolerances,
    notes: Optional[List[str]],
) -> List[str]:
    """Serving-bench bands — applied only when both artifacts carry the
    ``serving`` section (older baselines predate the serving layer).

    Failed requests are a correctness signal, not a measurement, so any
    fresh error trips the gate unconditionally.  Shedding, latency,
    throughput and hit rate all depend on the offered load and the
    server's admission limits, so those bands apply only when the two
    runs describe the same workload *and* server configuration.
    """
    violations: List[str] = []
    base = baseline.get("serving")
    new = fresh.get("serving")
    if not base or not new:
        if new and notes is not None:
            notes.append(
                f"perf: serving bench ({new.get('throughput_qps')} qps, "
                f"p99 {new.get('p99_latency_ms')} ms) is informational "
                "(baseline predates the serving layer)"
            )
        return violations

    if new.get("errors", 0) > 0:
        violations.append(
            f"serving: {new['errors']} request(s) failed in the fresh "
            "bench (baseline contract is zero errors)"
        )

    same_setup = (
        base.get("workload") == new.get("workload")
        and base.get("server") == new.get("server")
    )
    if not same_setup:
        if notes is not None:
            notes.append(
                "perf: serving latency/throughput/hit-rate bands skipped "
                "(workload or server config differs from the baseline)"
            )
        return violations

    if base.get("shed", 0) == 0 and new.get("shed", 0) > 0:
        violations.append(
            f"serving: {new['shed']} request(s) shed at a load the "
            "baseline served without shedding"
        )

    base_p99, fresh_p99 = base.get("p99_latency_ms"), new.get("p99_latency_ms")
    if base_p99 is not None and fresh_p99 is not None:
        ceiling = (
            base_p99 * (1.0 + tolerances.serving) + tolerances.serving_slack_ms
        )
        if fresh_p99 > ceiling:
            violations.append(
                f"serving: p99 latency {fresh_p99:.1f} ms exceeds "
                f"{ceiling:.1f} ms (baseline {base_p99:.1f} ms "
                f"+{tolerances.serving:.0%} +{tolerances.serving_slack_ms:g} ms)"
            )

    base_qps, fresh_qps = base.get("throughput_qps"), new.get("throughput_qps")
    if base_qps and fresh_qps:
        floor = base_qps * (1.0 - tolerances.serving)
        if fresh_qps < floor:
            violations.append(
                f"serving: throughput fell to {fresh_qps:.1f} qps "
                f"(baseline {base_qps:.1f} qps, floor {floor:.1f} qps)"
            )

    base_hits = base.get("cache_hit_rate")
    fresh_hits = new.get("cache_hit_rate")
    if base_hits is not None and fresh_hits is not None:
        floor = base_hits - tolerances.serving
        if fresh_hits < floor:
            violations.append(
                f"serving: cache hit rate fell to {fresh_hits:.3f} "
                f"(baseline {base_hits:.3f}, floor {floor:.3f})"
            )
    return violations


def _recovery_points(report: Dict) -> Dict[Tuple[str, float], Dict]:
    return {
        (point["engine"], point["pressure"]): point
        for point in report.get("points", [])
    }


def _node_points(report: Dict) -> Dict[Tuple[str, float, bool], Dict]:
    return {
        (
            point["engine"],
            point["node_pressure"],
            bool(point["checkpointed"]),
        ): point
        for point in report.get("node_points", [])
    }


def _compare_node_points(
    baseline: Dict, fresh: Dict, same_workload: bool
) -> List[str]:
    """Node-pressure checks — skipped entirely when either artifact
    predates the node sweep, so old baselines stay comparable."""
    violations: List[str] = []
    base_points = _node_points(baseline)
    fresh_points = _node_points(fresh)
    if not base_points or not fresh_points:
        return violations

    for engine, pressure, checkpointed in sorted(
        set(base_points) - set(fresh_points)
    ):
        mode = "checkpoint" if checkpointed else "abort"
        violations.append(
            f"recovery: node point ({engine}, node_pressure={pressure:g}, "
            f"{mode}) disappeared from the fresh bench"
        )
    for key in sorted(set(base_points) & set(fresh_points)):
        engine, pressure, checkpointed = key
        base_point = base_points[key]
        fresh_point = fresh_points[key]
        mode = "checkpoint" if checkpointed else "abort"
        if base_point.get("completed") and not fresh_point.get("completed"):
            violations.append(
                f"recovery: ({engine}, node_pressure={pressure:g}, {mode}) "
                "completed at the baseline but now aborts"
            )
            continue
        if not same_workload:
            # Kill schedules are seeded per workload; loss/resume counts
            # only transfer when rows and base seed match.
            continue
        for counter in ("nodes_lost", "resumed_rounds"):
            base_value = base_point.get(counter)
            fresh_value = fresh_point.get(counter)
            if base_value is None or fresh_value is None:
                continue
            if base_value != fresh_value:
                violations.append(
                    f"recovery: ({engine}, node_pressure={pressure:g}, "
                    f"{mode}) {counter} changed {base_value} -> "
                    f"{fresh_value} on an identical workload"
                )
    return violations


def compare_recovery(
    baseline: Dict, fresh: Dict, tolerances: Tolerances = Tolerances()
) -> List[str]:
    """Violations of the recovery bands (empty list = gate passes)."""
    violations: List[str] = []
    base_points = _recovery_points(baseline)
    fresh_points = _recovery_points(fresh)

    missing = sorted(set(base_points) - set(fresh_points))
    for engine, pressure in missing:
        violations.append(
            f"recovery: point ({engine}, pressure={pressure:g}) "
            "disappeared from the fresh bench"
        )

    same_workload = (
        baseline.get("rows") == fresh.get("rows")
        and baseline.get("base_seed") == fresh.get("base_seed")
    )
    for key in sorted(set(base_points) & set(fresh_points)):
        engine, pressure = key
        base_point = base_points[key]
        fresh_point = fresh_points[key]
        if not base_point.get("failed") and fresh_point.get("failed"):
            violations.append(
                f"recovery: ({engine}, pressure={pressure:g}) completed "
                "at the baseline but now fails"
            )
            continue
        if not same_workload or base_point.get("failed"):
            # Slowdown ratios replay a seeded fault schedule; a different
            # row count or seed draws different faults, so only the
            # structural checks above apply.
            continue
        base_slowdown = base_point.get("slowdown")
        fresh_slowdown = fresh_point.get("slowdown")
        if base_slowdown is None or fresh_slowdown is None:
            continue
        ceiling = (
            base_slowdown * (1.0 + tolerances.slowdown)
            + tolerances.slowdown_slack
        )
        if fresh_slowdown > ceiling:
            violations.append(
                f"recovery: ({engine}, pressure={pressure:g}) slowdown "
                f"{fresh_slowdown:.2f}x exceeds {ceiling:.2f}x "
                f"(baseline {base_slowdown:.2f}x)"
            )
    violations.extend(_compare_node_points(baseline, fresh, same_workload))
    return violations


def gate(
    perf_baseline: Optional[Dict] = None,
    perf_fresh: Optional[Dict] = None,
    recovery_baseline: Optional[Dict] = None,
    recovery_fresh: Optional[Dict] = None,
    tolerances: Tolerances = Tolerances(),
    notes: Optional[List[str]] = None,
) -> List[str]:
    """All violations across whichever artifact pairs were provided."""
    violations: List[str] = []
    if perf_baseline is not None and perf_fresh is not None:
        violations.extend(
            compare_perf(perf_baseline, perf_fresh, tolerances, notes=notes)
        )
    if recovery_baseline is not None and recovery_fresh is not None:
        violations.extend(
            compare_recovery(recovery_baseline, recovery_fresh, tolerances)
        )
    return violations


def _load(path: Optional[str]) -> Optional[Dict]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh bench JSON regresses past the "
        "committed baselines (see module docstring for the bands)"
    )
    parser.add_argument("--perf-baseline")
    parser.add_argument("--perf-fresh")
    parser.add_argument("--recovery-baseline")
    parser.add_argument("--recovery-fresh")
    parser.add_argument(
        "--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE
    )
    parser.add_argument(
        "--hot-path-tolerance", type=float,
        default=DEFAULT_HOT_PATH_TOLERANCE,
    )
    parser.add_argument(
        "--slowdown-tolerance", type=float,
        default=DEFAULT_SLOWDOWN_TOLERANCE,
    )
    parser.add_argument(
        "--slowdown-slack", type=float, default=DEFAULT_SLOWDOWN_SLACK
    )
    parser.add_argument(
        "--telemetry-tolerance", type=float,
        default=DEFAULT_TELEMETRY_TOLERANCE,
    )
    parser.add_argument(
        "--telemetry-slack", type=float, default=DEFAULT_TELEMETRY_SLACK
    )
    parser.add_argument(
        "--serving-tolerance", type=float,
        default=DEFAULT_SERVING_TOLERANCE,
    )
    parser.add_argument(
        "--serving-slack-ms", type=float,
        default=DEFAULT_SERVING_SLACK_MS,
    )
    args = parser.parse_args(argv)

    pairs = [
        ("perf", args.perf_baseline, args.perf_fresh),
        ("recovery", args.recovery_baseline, args.recovery_fresh),
    ]
    for name, base_path, fresh_path in pairs:
        if (base_path is None) != (fresh_path is None):
            parser.error(
                f"--{name}-baseline and --{name}-fresh must come together"
            )
    if all(base_path is None for _, base_path, _ in pairs):
        parser.error("nothing to compare: pass at least one artifact pair")

    notes: List[str] = []
    violations = gate(
        perf_baseline=_load(args.perf_baseline),
        perf_fresh=_load(args.perf_fresh),
        recovery_baseline=_load(args.recovery_baseline),
        recovery_fresh=_load(args.recovery_fresh),
        tolerances=Tolerances(
            wall=args.wall_tolerance,
            hot_path=args.hot_path_tolerance,
            slowdown=args.slowdown_tolerance,
            slowdown_slack=args.slowdown_slack,
            telemetry=args.telemetry_tolerance,
            telemetry_slack=args.telemetry_slack,
            serving=args.serving_tolerance,
            serving_slack_ms=args.serving_slack_ms,
        ),
        notes=notes,
    )
    for note in notes:
        print(f"  (info) {note}")
    if violations:
        print(f"regression gate: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("regression gate: all comparisons within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
