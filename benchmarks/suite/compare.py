"""Compare two sets of runs against the bounds in BENCHMARK.json.

    python benchmarks/suite/compare.py A.jsonl B.jsonl

Each file is what ``run.py --out FILE`` appends to: one JSON line per
run.  A is the parent commit's set, B the change's.  For every workload
and end-to-end metric this prints both medians, both quartile ranges,
how much worse B's median is (positive = worse, as a share of A's) and
the bound.  A metric whose median worsened past its bound is a
*breach*; one where either set's quartile range is wider than the bound
is *unresolved* rather than unchanged, unless every run of B reads
better than every run of A.  Any breach, or any rise in the share of
failed operations, makes the exit code non-zero.
"""

from __future__ import annotations

import collections
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path: str) -> Tuple[Dict, Dict]:
    """``{(workload, metric): [values]}`` and
    ``{workload: [failed, attempted]}`` over the untraced runs in ``path``."""
    values: Dict = collections.defaultdict(list)
    failures: Dict = collections.defaultdict(lambda: [0, 0])
    with open(path) as handle:
        for line in handle:
            run = json.loads(line)
            if run["trace"]:
                continue
            failures[run["workload"]][0] += run["failed"]
            failures[run["workload"]][1] += run["attempted"]
            for metric, summary in run["metrics"].items():
                values[(run["workload"], metric)].append(summary["value"])
    return values, failures


def quartile_range(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return quartiles[2] - quartiles[0]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_values, a_failures = load(argv[0])
    b_values, b_failures = load(argv[1])
    breaches = unresolved = 0
    print(f"{'workload':13} {'metric':22} {'A median':>11} {'A iqr':>9} "
          f"{'B median':>11} {'B iqr':>9} {'worse':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in declared["workloads"]]:
        for metric in declared["end_to_end"]:
            a = a_values.get((workload, metric["name"]))
            b = b_values.get((workload, metric["name"]))
            if not a or not b:
                print(f"{workload:13} {metric['name']:22} missing from a set")
                breaches += 1
                continue
            sign = 1 if metric["better"] == "lower" else -1
            a_median, b_median = statistics.median(a), statistics.median(b)
            worse = sign * (b_median - a_median) / a_median
            a_iqr, b_iqr = quartile_range(a), quartile_range(b)
            all_better = (
                max(b) < min(a) if sign == 1 else min(b) > max(a)
            )
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            elif not all_better and (
                max(a_iqr / a_median, b_iqr / b_median) > metric["bound"]
            ):
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            print(f"{workload:13} {metric['name']:22} {a_median:11.5g} "
                  f"{a_iqr:9.3g} {b_median:11.5g} {b_iqr:9.3g} "
                  f"{worse:+8.1%} {metric['bound']:6.0%}  {verdict}")
        a_share = a_failures[workload][0] / max(1, a_failures[workload][1])
        b_share = b_failures[workload][0] / max(1, b_failures[workload][1])
        verdict = "BREACH" if b_share > a_share else "ok"
        breaches += b_share > a_share
        print(f"{workload:13} {'failed_share':22} {a_share:11.5g} {'':9} "
              f"{b_share:11.5g} {'':9} {'':8} {'0':>6}  {verdict}")
    print(f"{breaches} breach(es), {unresolved} unresolved")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
