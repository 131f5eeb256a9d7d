#!/usr/bin/env python
"""Compare all engines across data distributions — Section 6 in miniature.

Runs SP-Cube against Pig's MR-Cube, Hive's plan and the naive algorithm
on four distributions (uniform, Zipf, gen-binomial at two skew levels),
printing a paper-style comparison table of simulated time, intermediate
traffic, and failure status.

Usage::

    python examples/distribution_comparison.py [num_rows]
"""

import sys

from repro import (
    Count,
    HiveCube,
    MRCube,
    NaiveCube,
    SPCube,
    gen_binomial,
    gen_zipf,
)
from repro.analysis import paper_cluster, run_algorithms


def main():
    num_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    cluster = paper_cluster(num_rows)

    datasets = [
        ("uniform", gen_binomial(num_rows, 0.0, seed=3)),
        ("zipf", gen_zipf(num_rows, seed=3)),
        ("binomial p=.25", gen_binomial(num_rows, 0.25, seed=3)),
        ("binomial p=.60", gen_binomial(num_rows, 0.60, seed=3)),
    ]
    engines = {
        "SP-Cube": lambda: SPCube(cluster, Count()),
        "Pig": lambda: MRCube(cluster, Count()),
        "Hive": lambda: HiveCube(cluster, Count()),
        "Naive": lambda: NaiveCube(cluster, Count()),
    }

    header = f"{'dataset':16s}" + "".join(f"{name:>14s}" for name in engines)
    print("simulated running time (seconds); OOM = stuck per the paper\n")
    print(header)
    print("-" * len(header))

    for label, relation in datasets:
        runs = run_algorithms(
            relation,
            {name: make() for name, make in engines.items()},
            verify=True,  # all engines must agree on the cube
        )
        cells = []
        for name in engines:
            metrics = runs[name].metrics
            if metrics.failed:
                cells.append(f"{'OOM':>14s}")
            else:
                cells.append(f"{metrics.total_seconds:14.1f}")
        print(f"{label:16s}" + "".join(cells))

    print("\nintermediate data (MB)\n")
    print(header)
    print("-" * len(header))
    for label, relation in datasets:
        runs = run_algorithms(
            relation, {name: make() for name, make in engines.items()}
        )
        cells = "".join(
            f"{runs[name].metrics.intermediate_bytes / 1e6:14.2f}"
            for name in engines
        )
        print(f"{label:16s}" + cells)

    print("\nAll engines verified to produce identical cubes.")


if __name__ == "__main__":
    main()
