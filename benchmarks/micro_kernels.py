"""Kernel micro-benchmarks: the BUC hot path against its oracle.

Two one-process comparisons, each the fast path measured against the
legacy implementation it replaced (both still in the tree):

* **BUC kernel** — ``buc_cube(kernel="array")`` (iterative, sort +
  run-length) versus ``kernel="legacy"`` (recursive dict-of-lists) on a
  moderate binomial workload;
* **BUC singleton/grouping fast paths** — the array kernel again, on a
  high-skew workload whose tree mixes long low-cardinality runs (where
  sort + ``groupby`` shines) with singleton chains (where the
  subset-enumeration path skips partitioning entirely).

Because both sides of every ratio run in the same process on the same
data, the speedups are self-normalizing and transfer across machines —
which is what lets ``--assert-floors`` enforce *conservative* floors in
CI without flaking on slow shared runners.  The floors are deliberately
far below the measured speedups (see EXPERIMENTS.md): they exist to catch
someone accidentally routing the hot path back through the legacy code,
not to benchmark the runner.

Usage::

    python benchmarks/micro_kernels.py [--rows N] [--repeats K]
        [--json PATH] [--profile PATH] [--assert-floors]

``--profile`` additionally runs the smoke workload (SP-Cube end to end)
under cProfile and writes the binary stats file — the CI perf-smoke job
uploads it so a regression can be diagnosed from the artifact alone.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time
from typing import Callable, Dict, List, Optional

REPO_SRC = None
try:
    from repro.core import SPCube  # noqa: F401  (import probe)
except ImportError:  # pragma: no cover - direct CLI use without PYTHONPATH
    import pathlib

    REPO_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, REPO_SRC)

from repro.aggregates.functions import get_aggregate
from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.cubing.buc import buc_cube, iceberg_groups
from repro.datagen import gen_binomial

#: Conservative floors for --assert-floors; measured values sit well
#: above them (see EXPERIMENTS.md), so tripping one means the fast path
#: is no longer being exercised, not that the runner is slow.  The
#: sparse-cube floor is a *parity* guard: on near-unique data the array
#: kernel's win is modest (~1.07x), so the floor only catches it
#: becoming genuinely slower than the legacy recursion.
FLOORS = {
    "buc_array_speedup": 0.9,
    "buc_skewed_speedup": 1.1,
}


def _ab_best(
    fast: Callable[[], object], slow: Callable[[], object], repeats: int
) -> List[float]:
    """min-of-repeats for two contenders, warmed and interleaved.

    Timing each side in its own block hands the first block a cold
    allocator and the second a warm one — enough bias to flip a ~1.1x
    comparison.  One untimed warm-up of each plus A/B interleaving keeps
    the draw fair.
    """
    fast()
    slow()
    times: List[List[float]] = [[], []]
    for _ in range(repeats):
        for index, fn in enumerate((fast, slow)):
            start = time.perf_counter()
            fn()
            times[index].append(time.perf_counter() - start)
    return [min(times[0]), min(times[1])]


def bench_buc_kernels(rows: int, repeats: int) -> Dict[str, float]:
    relation = gen_binomial(rows, 0.4, seed=600)
    aggregate = get_aggregate("count")
    array, legacy = _ab_best(
        lambda: buc_cube(relation, aggregate, kernel="array"),
        lambda: buc_cube(relation, aggregate, kernel="legacy"),
        repeats,
    )
    assert buc_cube(relation, aggregate, kernel="array") == buc_cube(
        relation, aggregate, kernel="legacy"
    )
    return {
        "buc_rows": rows,
        "buc_array_seconds": round(array, 6),
        "buc_legacy_seconds": round(legacy, 6),
        "buc_array_speedup": round(legacy / array, 2),
    }


def bench_buc_skewed(rows: int, repeats: int) -> Dict[str, float]:
    relation = gen_binomial(rows, 0.9, seed=601)
    aggregate = get_aggregate("count")
    array, legacy = _ab_best(
        lambda: buc_cube(relation, aggregate, kernel="array"),
        lambda: buc_cube(relation, aggregate, kernel="legacy"),
        repeats,
    )
    assert buc_cube(relation, aggregate, kernel="array") == buc_cube(
        relation, aggregate, kernel="legacy"
    )
    # The sketch builder's iceberg wrapper rides the same kernel; pin
    # its identity here too so the micro-bench doubles as a smoke check.
    d = relation.schema.num_dimensions
    assert iceberg_groups(relation.rows, d, 2, kernel="array") == (
        iceberg_groups(relation.rows, d, 2, kernel="legacy")
    )
    return {
        "buc_skewed_rows": rows,
        "buc_skewed_array_seconds": round(array, 6),
        "buc_skewed_legacy_seconds": round(legacy, 6),
        "buc_skewed_speedup": round(legacy / array, 2),
    }


def profile_smoke_workload(path: str, rows: int) -> None:
    """cProfile the end-to-end smoke workload into a binary stats file."""
    relation = gen_binomial(rows, 0.4, seed=600)
    engine = SPCube(paper_cluster(rows))
    profiler = cProfile.Profile()
    profiler.enable()
    engine.compute(relation)
    profiler.disable()
    profiler.dump_stats(path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="micro-benchmark the BUC kernel against its "
        "legacy oracle (see module docstring)"
    )
    parser.add_argument("--rows", type=int, default=20_000,
                        help="workload size per micro-bench")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per timing")
    parser.add_argument("--json", help="write results to this path")
    parser.add_argument(
        "--profile",
        help="also cProfile the end-to-end smoke workload to this path",
    )
    parser.add_argument(
        "--assert-floors", action="store_true",
        help="exit 1 when any kernel speedup is below its floor",
    )
    args = parser.parse_args(argv)

    results: Dict[str, object] = {}
    results.update(bench_buc_kernels(args.rows, args.repeats))
    results.update(bench_buc_skewed(args.rows, args.repeats))
    results["floors"] = FLOORS

    if args.profile:
        profile_smoke_workload(args.profile, args.rows)
        results["profile"] = args.profile

    print(json.dumps(results, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")

    if args.assert_floors:
        failures = [
            f"{metric}: {results[metric]}x is below the {floor}x floor"
            for metric, floor in FLOORS.items()
            if results[metric] < floor
        ]
        if failures:
            for failure in failures:
                print(f"FLOOR VIOLATION - {failure}")
            return 1
        print("all kernel speedups above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
