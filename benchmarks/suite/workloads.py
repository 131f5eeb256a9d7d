"""The four workloads: what each feeds the program and why it exists.

Everything here is a pure function of ``(workload, seed)``: the relation
(written to a TSV, the only thing a build child sees), the query pool
(the only thing the server sees), and the digests the smoke test pins
determinism with.  Sizes are cut to the benchmark contract's time cap
(92 driver runs in 3420 s on a 2-core box); the paper-scale shapes they
stand for are in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.datagen import gen_binomial, gen_zipf
from repro.io import write_relation

#: Distinct specs per cuboid in the cold pool; 57 cuboids x 10 specs
#: overflows the server's result cache (128) about 4.5 times.
COLD_SPECS_PER_CUBOID = 10
#: Cuboids the hot pool touches; fits the server's segment cache (16).
HOT_CUBOIDS = 13


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, int], object]  # (rows, seed) -> Relation
    rows: int
    aggregate: str
    pool: str  # "hot" | "cold"
    #: Share of ``--seconds`` spent on timed build repeats; the rest
    #: goes to the closed serving loop.
    build_share: float
    min_builds: int
    min_requests: int


def _sparse(rows: int, seed: int):
    return gen_binomial(rows, 0.4, seed=seed)


def _dense(rows: int, seed: int):
    return gen_zipf(rows, num_values=12, seed=seed, measure=None)


def _wide(rows: int, seed: int):
    return gen_zipf(
        rows, num_values=30, num_zipf_dimensions=3,
        num_uniform_dimensions=3, seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "build-sparse",
            "Fig 6 mid-skew binomial, ~9 output groups per row: BUC, "
            "result merge and store write do the work, load and map little",
            _sparse, 6_000, "count", "hot", 0.8, 5, 1000,
        ),
        Workload(
            "build-dense",
            "Zipf over 12 values, ~0.4 groups per row, avg: load, lattice "
            "walk and map-side partial aggregation dominate, store little",
            _dense, 40_000, "avg", "hot", 0.8, 5, 1000,
        ),
        Workload(
            "serve-hot",
            "26 specs over 13 cuboids fit both server caches: every answer "
            "is a result-cache hit, so HTTP, admission and serialise show",
            _wide, 800, "count", "hot", 0.35, 3, 3000,
        ),
        Workload(
            "serve-cold",
            "570 drilldowns over 57 cuboids overflow both caches: segment "
            "read, CRC and literal_eval decode dominate, HTTP is noise",
            _wide, 800, "count", "cold", 0.35, 3, 1000,
        ),
    )
}


def _cuboids(dimensions: List[str], min_dims: int) -> List[tuple]:
    """Dimension-name subsets, fewest dimensions first."""
    return [
        combo
        for size in range(min_dims, len(dimensions) + 1)
        for combo in itertools.combinations(dimensions, size)
    ]


def _drilldown(combo: tuple, into: str, row: tuple, dimensions) -> dict:
    group = {
        name: row[dimensions.index(name)] for name in combo if name != into
    }
    return {"op": "drilldown", "group": group, "into": into}


def hot_pool(relation, rng: random.Random) -> List[dict]:
    """Two specs on each of the 13 smallest cuboids."""
    dimensions = list(relation.schema.dimensions)
    pool = []
    for combo in _cuboids(dimensions, 1)[:HOT_CUBOIDS]:
        pool.append({"op": "rollup", "dimensions": list(combo)})
        if len(combo) == 1:
            pool.append({"op": "top", "dimensions": list(combo), "k": 5})
        else:
            row = relation[rng.randrange(len(relation))]
            pool.append(_drilldown(combo, combo[-1], row, dimensions))
    return pool


def cold_pool(relation, rng: random.Random) -> List[dict]:
    """Distinct drilldowns on every cuboid of at least two dimensions."""
    dimensions = list(relation.schema.dimensions)
    pool = []
    for combo in _cuboids(dimensions, 2):
        seen = set()
        # Anchoring on existing rows makes every answer non-empty; a
        # small relation may hold fewer than ten distinct anchors.
        for attempt in range(20 * COLD_SPECS_PER_CUBOID):
            row = relation[rng.randrange(len(relation))]
            spec = _drilldown(
                combo, combo[attempt % len(combo)], row, dimensions
            )
            key = json.dumps(spec, sort_keys=True)
            if key not in seen:
                seen.add(key)
                pool.append(spec)
            if len(seen) == COLD_SPECS_PER_CUBOID:
                break
    return pool


@dataclass
class Inputs:
    pool: List[dict]
    tsv_digest: str
    pool_digest: str


def make_inputs(
    workload: Workload, seed: int, tsv_path: str, rows: int
) -> Inputs:
    """Generate the relation and pool for ``seed`` and write the TSV.

    The pool is built from the relation *as the program will read it*
    (``read_relation`` keeps dimensions as strings), so pool values are
    rendered with ``str``.
    """
    relation = workload.generate(rows, seed)
    write_relation(relation, tsv_path)
    rng = random.Random(seed)
    build = hot_pool if workload.pool == "hot" else cold_pool
    pool = build(relation, rng)
    for spec in pool:
        if "group" in spec:
            spec["group"] = {k: str(v) for k, v in spec["group"].items()}
    with open(tsv_path, "rb") as handle:
        tsv_digest = hashlib.sha256(handle.read()).hexdigest()
    pool_digest = hashlib.sha256(
        json.dumps(pool, sort_keys=True).encode()
    ).hexdigest()
    return Inputs(pool, tsv_digest, pool_digest)
