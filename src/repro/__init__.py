"""SP-Cube: skew-resilient MapReduce data-cube computation.

Reproduction of Milo & Altshuler, *"An Efficient MapReduce Cube Algorithm
for Varied Data Distributions"*, SIGMOD 2016.

Quick start::

    from repro import SPCube, ClusterConfig, gen_zipf

    relation = gen_zipf(100_000)
    run = SPCube(ClusterConfig(num_machines=20)).compute(relation)
    print(run.cube.num_groups, run.metrics.total_seconds)

Package layout
--------------
``repro.relation``    schemas, relations, cube/tuple lattices
``repro.aggregates``  distributive/algebraic/holistic aggregate functions
``repro.mapreduce``   the simulated cluster substrate
``repro.cubing``      sequential cube algorithms (oracle, BUC)
``repro.core``        the SP-Sketch, the planner, and SP-Cube itself
``repro.baselines``   Naive-MR, Pig's MR-Cube, Hive
``repro.datagen``     the paper's workload generators
``repro.theory``      skewness monotonicity and traffic-bound predicates
``repro.analysis``    sweep harness and paper-style reporting
``repro.serving``     on-disk cube store, stored views, query server
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "aggregates": [
        "Average", "Count", "CountDistinct", "Max", "Median", "Min", "Multi",
        "Sum", "TopKFrequent", "Variance", "get_aggregate",
    ],
    "analysis": ["run_sweep"],
    "baselines": ["HiveCube", "MRCube", "NaiveCube"],
    "core": ["SPCube", "SPSketch", "build_exact_sketch"],
    "cubing": ["CubeResult", "buc_cube", "sequential_cube"],
    "datagen": [
        "adversarial_relation", "gen_binomial", "gen_zipf", "usagov_clicks",
        "wikipedia_traffic",
    ],
    "interface": ["CubeRun"],
    "query": ["CubeView", "QueryError"],
    "serving": ["CubeServer", "CubeStore", "StoredCubeView", "StoreError"],
    "mapreduce": ["ClusterConfig", "CostModel"],
    "relation": ["Relation", "Schema"],
})
__all__.append("__version__")
