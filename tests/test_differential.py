"""The differential harness: the repository's invariant, stated once.

*Every engine, kernel, task order, fault plan, store and server returns
the cube the naive oracle returns, or a typed one-line error.*  A
:class:`Case` takes one value on each axis — input × aggregate × engine
× task order × fault plan × read surface — and :func:`check_case`
asserts what the invariant implies for it:

* the cube equals ``sequential_cube`` (``iceberg_cube`` for the iceberg
  variant), or the run raises the typed error :data:`TYPED_ERRORS`
  documents; a plan that exhausts a retry budget aborts with an empty
  cube; the naive engine ships one pair per row and cuboid, each
  charged as one;
* against the serial run of the same case: the metrics (minus
  :data:`BACKEND_FIELDS`), the JSONL trace bytes, the telemetry
  exposition and the lineage jobs and alerts;
* against the fault-free run: the same cube, and more attempts and a
  later clock wherever the plan cost an attempt;
* the trace is schema-valid, its attempt spans come in task order, and
  every ranged reducer's load is inside ``SKEW_TOLERANCE * load_band``
  or a ``skew_alert`` named it (reducer 0 of a sketch-promised round
  absorbs the skewed groups by design);
* every query op answers alike from memory and from a store, and a
  server's reply body is the store's answer, byte for byte.

Runs are cached, so the cases, the named cases the older suites keep
under their own ids, and the trace tests share them.  Tier-1 checks
:data:`SAMPLE`, a deterministic set of cases in which every pair of axis
values occurs, and one case per engine a :func:`known_defect` breaks;
``pytest -m exhaustive`` checks every case.  The Algorithm-3 walk and
the reference reducer at the bottom are the per-kernel oracles of
SP-Cube's round 2.
"""

import json
import tempfile
from collections import Counter
from dataclasses import asdict
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, product
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from repro.aggregates.functions import get_aggregate, registered_aggregates
from repro.baselines import NaiveCube
from repro.core import SPCube
from repro.core.planner import plan_for_skew_bits, plan_without_covering
from repro.core.sketch import CuboidSketch, SPSketch, build_exact_sketch
from repro.core.spcube import _CubeMapper, _CubeReducer, _PlanFunction
from repro.cubing import CubeResult, buc_cube, sequential_cube
from repro.datagen import (
    adversarial_memory,
    adversarial_relation,
    gen_binomial,
    gen_zipf,
    wikipedia_traffic,
)
from repro.engines import ENGINE_NAMES, load_engines
from repro.mapreduce import (
    NO_FAULTS,
    Block,
    ClusterConfig,
    CostModel,
    FaultPlan,
    FaultSpec,
    MapReduceJob,
    RetryPolicy,
    TaskContext,
    TaskFactory,
    estimate_bytes,
    pair_bytes,
)
from repro.mapreduce.engine import _ordered_keys, _ReduceTask
from repro.mapreduce.faults import NodeFaultSpec
from repro.observability import (
    LineageIndex,
    MemorySink,
    Telemetry,
    Tracer,
    Watchdog,
    record_problems,
)
from repro.observability.watchdog import SKEW_TOLERANCE
from repro.query import CubeView, QueryError
from repro.relation import Relation, Schema
from repro.relation.lattice import project
from repro.serving import CubeServer, CubeStore, StoredCubeView, execute_query
from repro.serving.server import _encode, _refusal
from repro.theory.bounds import load_band

from .conftest import iceberg_cube

# -- inputs --------------------------------------------------------------------


def _relation(name, dimensions, rows):
    return Relation(Schema(dimensions, "m"), rows, validate=False, name=name)


def _heavy_hitters():
    """d = 5: two tuples hold two thirds of the rows and one value of
    ``a`` 92%, over a tail of distinct tuples — the heavy-hitter mixes SharesSkew
    and "Handling Skew in Multiway Joins" route around."""
    hot = [("u", "v", "w", 1, "x", 2), ("u", "z", "w", 1, "y", 0.5)]
    tail = [
        ("u" if i % 4 else "q", "abc"[i % 3], str(i % 7), i % 5, "xy"[i % 2], i)
        for i in range(24)
    ]
    return _relation("heavy", ["a", "b", "c", "d", "e"], hot * 24 + tail)


#: Input -> (relation factory, reducer memory ``m`` in records).  The
#: dimension count runs from 1 (all-equal) to 6 (adversarial).
INPUTS = {
    "empty": (lambda: _relation("empty", ["a", "b", "c"], []), 8),
    "one-row": (lambda: _relation(
        "one-row", ["a", "b", "c"], [("x", 1, None, 5)]
    ), 8),
    "all-equal": (lambda: _relation("all-equal", ["a"], [("a", 3)] * 24), 4),
    "none": (lambda: _relation(
        "none", ["a", "b"], [(None, "a", 1), (None, None, 2.5), ("b", None, 3)] * 4
    ), 2),
    # ``1``, ``True`` and ``1.0`` are equal and hash-equal: one c-group,
    # whichever of them a run sees first.
    "lookalikes": (lambda: _relation("lookalikes", ["a", "b"], [
        (True, "x", 1), (1, "x", 2), (1.0, "y", 3), (1, "y", 4),
        (0, "x", 5), (False, "x", 6), (1.0, "x", 7), (0.0, "y", 8),
    ] * 2), 2),
    # Look-alikes next to strings: nothing sorts them, so BUC partitions
    # by dict and range partitioning refuses the relation.
    "mixed-types": (lambda: _relation("mixed-types", ["a", "b"], [
        (1, "x", 2), (True, "x", 3), ("one", "y", 5), (1, "y", 7),
        ("one", "x", 11), (0, "y", 13), (False, "x", 17),
    ]), 2),
    # Builtin ``sum`` is compensated on Python >= 3.12; every kernel must
    # left-fold like ``add`` on every interpreter of the CI matrix.
    "floats": (lambda: _relation("floats", ["a", "b"], [("x", "p", 0.1)] * 10 + [
        ("y", "q", 1e16), ("y", "q", 1.0), ("y", "p", -1e16),
        ("x", "q", 0.3), ("y", "q", 0.7),
    ]), 4),
    "heavy": (_heavy_hitters, 12),
    "binomial": (lambda: gen_binomial(120, 0.3, seed=9), 16),
    "zipf": (lambda: gen_zipf(96, num_values=16, seed=5), 12),
    "wikipedia": (lambda: wikipedia_traffic(96, seed=1), 12),
    # Theorem 5.3's worst case: the skew boundary at lattice level d/2.
    "adversarial": (
        lambda: adversarial_relation(6, 64, seed=3), adversarial_memory(6, 64)
    ),
}


@lru_cache(maxsize=None)
def relation(name):
    return INPUTS[name][0]()


# -- engines, task orders, fault plans, read surfaces --------------------------

AGGREGATES = ("count", "sum", "avg")
ICEBERG = 3

ENGINES = {
    **load_engines(ENGINE_NAMES),
    "spcube-exact": partial(SPCube, use_exact_sketch=True),
    "spcube-ablation": partial(
        SPCube, map_partial_aggregation=False, ancestor_covering=False,
        range_partitioning=False,
    ),
    "spcube-iceberg": partial(SPCube, min_group_size=ICEBERG),
    "naive-combiner": partial(NaiveCube, use_combiner=True),
    "buc": None,  # sequential: no cluster, so one task order and no faults
}


class ReversedExecutor(ClusterConfig):
    """A cluster whose every phase runs its tasks last-to-first and hands
    the outcomes back in index order: a task that leans on what an
    earlier task left behind shows, without a thread."""

    name = "reversed"

    def task_executor(self):
        return self

    def run_tasks(self, tasks, stop_early=None):
        return [task() for task in reversed(tasks)][::-1]


ORDERS = {
    "serial": ClusterConfig,
    "parallel": partial(ClusterConfig, parallelism=3),
    "reversed": ReversedExecutor,
}

#: Fault plan -> the plan injected (``None`` = a healthy cluster).
FAULTS = {
    "none": lambda: None,
    "map-crash": lambda: FaultPlan([FaultSpec("crash", phase="map", task=0, attempt=0)]),
    "reduce-crash": lambda: FaultPlan(
        [FaultSpec("crash", phase="reduce", task=0, attempt=0)]
    ),
    # Every map task straggles, so the speculation delay shows in the clock.
    "straggler": lambda: FaultPlan(
        [FaultSpec("straggle", phase="map", slowdown=100.0, attempt=None)]
    ),
    # Every job: map task 0 crashes once, reduce task 0 straggles into a
    # speculative backup.
    "task-faults": lambda: FaultPlan([
        FaultSpec("crash", phase="map", task=0),
        FaultSpec("straggle", phase="reduce", task=0),
    ]),
    "exhausting": lambda: FaultPlan(
        [FaultSpec("crash", phase="map", task=0, attempt=None)]
    ),
    # Seeded coins: crashes and stragglers on several tasks of one phase
    # at once, and nodes that die at a round's start.  No task of any
    # case draws four crashes, so no run aborts.
    "random": lambda: FaultPlan(
        seed=5, crash_prob=0.1, straggle_prob=0.1, node_crash_prob=0.05
    ),
    # Node 1 dies 10 simulated seconds into each engine's cube round, in
    # its reduce phase; the checkpoint layer resumes the round.
    "node-loss": lambda: FaultPlan(node_specs=[
        NodeFaultSpec(node=1, at_seconds=10.0, job=job)
        for job in ("sp-cube", "naive-cube", "hive-cube", "mrcube-materialize")
    ]),
}

SURFACES = ("memory", "store", "server")

#: JobMetrics fields describing the backend, not the simulation.
BACKEND_FIELDS = ("executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds")

#: Typed errors the invariant allows: range partitioning and Hive's sorted
#: map-side flush need dimension values that sort, and ``None`` or ints
#: next to strings do not.
TYPED_ERRORS = {
    (input_name, engine): (TypeError, "not supported between instances")
    for input_name in ("none", "mixed-types")
    for engine in ("spcube", "spcube-exact", "spcube-ablation", "spcube-iceberg",
                   "hive")
}

#: Engines whose partitioner hashes a key's ``repr``.
HASH_ROUTED = ("hive", "mrcube", "naive", "naive-combiner", "spcube-ablation")
#: Engines that merge partial states of one c-group (map-side partial
#: aggregation or a combiner), not left-fold its rows in input order.
PARTIAL_MERGING = ("hive", "mrcube", "naive-combiner", "spcube", "spcube-exact",
                   "spcube-iceberg")


def known_defect(case):
    """Why ``case`` breaks the invariant today, or None.  Each such case
    is an expected failure: mending the defect fails it loudly."""
    if case.fault == "exhausting" or (case.input, case.engine) in TYPED_ERRORS:
        return None
    if case.input in ("lookalikes", "mixed-types") and case.engine in HASH_ROUTED:
        return (
            "stable_hash routes 1, True and 1.0 apart: one c-group is "
            "reduced in pieces (conflicting values, or a silently short one)"
        )
    if (
        case.input == "floats" and case.aggregate != "count"
        and case.engine in PARTIAL_MERGING
    ):
        return (
            "partial states merge in another order than the oracle's left "
            "fold, and float addition does not associate (1e16 + 1.0 - 1e16)"
        )
    return None


class Case(NamedTuple):
    input: str
    aggregate: str = "count"
    engine: str = "spcube"
    order: str = "serial"
    fault: str = "none"
    surface: str = "memory"


def valid(case):
    return case.engine != "buc" or (case.order, case.fault) == ("serial", "none")


def cluster(input_name, order="serial", fault="none", tracer=None):
    return ORDERS[order](
        num_machines=4,
        num_nodes=2,
        memory_records=INPUTS[input_name][1],
        cost_model=CostModel(speculation_launch_seconds=1e-4),
        fault_plan=FAULTS[fault](),
        tracer=tracer,
    )


# -- runs ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def traced_run(input_name, aggregate="count", engine="spcube", order="serial",
               fault="none"):
    """One run traced at ``debug`` with every derivation attached live:
    the run, its records, their JSONL text and the live sinks — or the
    exception the run raised."""
    live = SimpleNamespace(
        before=MemorySink(), watchdog=Watchdog(), telemetry=Telemetry(),
        lineage=LineageIndex(), after=MemorySink(),
    )
    tracer = Tracer(list(vars(live).values()), level="debug")
    try:
        run = ENGINES[engine](
            cluster(input_name, order, fault, tracer), get_aggregate(aggregate)
        ).compute(relation(input_name))
    except Exception as error:  # the typed-error leg, judged by check_case
        return error
    records = live.after.records
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return Traced(run=run, records=records, text=text, live=live)


class Traced(SimpleNamespace):
    @cached_property
    def simulation(self):
        return simulation(self.run)


@lru_cache(maxsize=None)
def untraced_run(input_name, aggregate="count", engine="spcube", order="serial",
                 fault="none"):
    return ENGINES[engine](
        cluster(input_name, order, fault), get_aggregate(aggregate)
    ).compute(relation(input_name))


@lru_cache(maxsize=None)
def oracle(input_name, aggregate, iceberg=False):
    if iceberg:
        return iceberg_cube(relation(input_name), get_aggregate(aggregate), ICEBERG)
    return sequential_cube(relation(input_name), get_aggregate(aggregate))


def simulation(run):
    """Everything a run computed, minus the backend's host-side fields."""
    jobs = []
    for job in run.metrics.jobs:
        fields = asdict(job)
        for name in BACKEND_FIELDS:
            del fields[name]
        jobs.append(fields)
    return (
        sorted(run.cube.items(), key=repr), jobs, run.metrics.extras,
        run.metrics.output_groups,
    )


# -- the check -----------------------------------------------------------------


@lru_cache(maxsize=None)
def check_case(case):
    want = oracle(case.input, case.aggregate, case.engine == "spcube-iceberg")
    if case.engine == "buc":
        cube = buc_cube(relation(case.input), get_aggregate(case.aggregate))
        assert cube == want, cube.diff(want)
        return check_surface(case, cube, want)
    outcome = traced_run(*case[:5])
    if isinstance(outcome, Exception):
        error, pattern = TYPED_ERRORS.get((case.input, case.engine), (None, None))
        if error is None or not isinstance(outcome, error):
            raise outcome
        assert pattern in str(outcome) and "\n" not in str(outcome)
        return
    run = outcome.run
    if run.metrics.aborted:
        assert case.fault == "exhausting" and run.metrics.failed
        assert run.cube.num_groups == 0
        want = CubeResult(want.schema)
    else:
        assert case.fault != "exhausting" or not len(relation(case.input))
        # Hive's own failure model (Fig 6a): a group over reducer memory
        # gets it stuck; the cube it reports is still the whole cube.
        assert not run.metrics.failed or case.engine == "hive"
        assert run.cube == want, run.cube.diff(want)
    if case.engine == "naive" and case.fault == "none":
        # Algorithm 1 ships one pair per row and cuboid, each charged as one.
        d = want.schema.num_dimensions
        pairs = [
            ((mask, project(row, mask, d)), row[-1])
            for row in relation(case.input).rows for mask in range(1 << d)
        ]
        (job,) = run.metrics.jobs
        assert job.map_output_records == len(pairs)
        assert job.map_output_bytes == sum(pair_bytes(*pair) for pair in pairs)
    check_trace(outcome)
    if case.order != "serial":
        assert_same_run(outcome, traced_run(*case[:3], "serial", case.fault))
    if case.fault not in ("none", "exhausting"):
        check_fault(outcome, traced_run(*case[:4], "none"))
    check_surface(case, run.cube, want)


def assert_same_run(got, want):
    """Two task orders of one case: one simulation, one trace."""
    assert got.simulation == want.simulation
    assert got.text == want.text
    assert got.live.telemetry.prometheus_text() == want.live.telemetry.prometheus_text()
    assert got.live.lineage.jobs == want.live.lineage.jobs
    assert got.live.lineage.alerts == want.live.lineage.alerts
    assert got.live.watchdog.comparisons == want.live.watchdog.comparisons


def check_fault(faulted, clean):
    """A fault costs attempts and time, never data.  A plan that cost no
    attempt (no task it names; a node dying idle) costs no time either."""
    assert faulted.simulation[0] == clean.simulation[0]
    got, want = faulted.run.metrics, clean.run.metrics
    if got.attempts == want.attempts:
        assert got.total_seconds == want.total_seconds
    else:
        assert got.attempts > want.attempts
        assert got.total_seconds > want.total_seconds


def check_trace(outcome):
    records = outcome.records
    assert not [problem for r in records for problem in record_problems(r)]
    # The driver emits each phase's attempt chains in task order.
    last = {}
    for record in records:
        if record["kind"] == "job":
            last.clear()
        elif record["kind"] == "attempt":
            phase = record["job"], record["phase"]
            assert record["task"] >= last.get(phase, -1), (phase, record["task"])
            last[phase] = record["task"]
    # Prop 4.2(2): inside the band, or the watchdog said which reducer.
    promised = {
        r["fields"]["promise"]["job"] for r in records
        if r["kind"] == "sketch" and "promise" in r["fields"]
    }
    lineage = outcome.live.lineage
    alerted = {
        (a["job"], a["execution"], a["reducer"])
        for a in lineage.alerts if a["kind"] == "skew_alert"
    }
    for (name, execution), job in lineage.jobs.items():
        ranged = [
            task for task in job["reduces"]
            if name not in promised or task["task"] != 0
        ]
        if job["aborted"] or not ranged:
            continue
        band = load_band(
            sum(task["records_in"] for task in ranged), len(ranged),
            job["memory_records"],
        )
        for task in ranged:
            assert task["records_in"] <= SKEW_TOLERANCE * band or (
                (name, execution, task["task"]) in alerted
            ), (name, task)


def queries(input_name):
    """Specs over every op — the wire's and in-process ``dice`` — with
    present, look-alike and absent values of the first dimension."""
    dims = list(relation(input_name).schema.dimensions)
    anchors = list({
        repr(row[0]): row[0] for row in relation(input_name).rows
    }.values())[:6] + ["~absent~"]
    specs = [
        {"op": "total"}, {"op": "cuboid_sizes"},
        {"op": "rollup", "dimensions": dims[::-1]},
        {"op": "rollup", "dimensions": dims[:1]},
        {"op": "top", "dimensions": dims[:2], "k": 3},
        {"op": "pivot", "row": dims[0], "column": dims[-1]},
        {"op": "dice", "dimension": dims[0], "values": anchors[:2]},
    ]
    for value in anchors:
        specs.append({"op": "slice", "fixed": {dims[0]: value}})
        specs.append({"op": "drilldown", "group": {dims[0]: value}, "into": dims[-1]})
    return specs


def answer(view, spec):
    """``spec`` answered by ``view``'s own methods, or the typed error."""
    op = spec["op"]
    try:
        if op == "rollup":
            return view.rollup(*spec["dimensions"])
        if op == "top":
            return view.top(spec["dimensions"], spec["k"])
        if op == "slice":
            return view.slice(**spec["fixed"])
        if op == "drilldown":
            return view.drilldown(spec["group"], spec["into"])
        if op == "pivot":
            return view.pivot(spec["row"], spec["column"])
        if op == "dice":
            return view.dice(**{spec["dimension"]: spec["values"].__contains__})
        return getattr(view, op)()
    except QueryError as error:
        return "QueryError", str(error)


def reply(view, spec):
    """The status and body a server over ``view`` answers ``spec`` with."""
    try:
        return 200, _encode({"ok": True, "result": execute_query(view, spec)})
    except QueryError as error:
        return 400, _refusal(str(error))


def check_surface(case, cube, want):
    specs, expected = queries(case.input), CubeView(want)
    if case.surface == "memory":
        for spec in specs:
            assert answer(CubeView(cube), spec) == answer(expected, spec), spec
        return
    with tempfile.TemporaryDirectory() as directory:
        path = f"{directory}/cube.store"
        CubeStore.write(cube, path, aggregate=case.aggregate)
        with StoredCubeView.open(path) as stored:
            for spec in specs:
                assert answer(stored, spec) == answer(expected, spec), spec
            if case.surface == "server":
                with CubeServer(stored) as server:
                    for spec in specs:
                        got = server._handle_query(spec, object())
                        assert got == reply(stored, spec), spec


# -- the sample ----------------------------------------------------------------

AXES = (tuple(INPUTS), AGGREGATES, tuple(ENGINES), tuple(ORDERS), tuple(FAULTS),
        SURFACES)


def pairwise(axes, allowed):
    """Cases until every pair of axis values some allowed case holds
    occurs in one: greedily, seeded by the first uncovered pair, each
    further axis taking the value that covers most new pairs (a value no
    allowed case takes next to the chosen ones, with the first value of
    each axis still open, scores -1)."""
    def pairs(values):
        return set(combinations(enumerate(values), 2))

    uncovered = set()
    for values in product(*axes):
        if allowed(Case(*values)):
            uncovered |= pairs(values)
    cases = []
    while uncovered:
        (a, x), (b, y) = min(uncovered)
        chosen = {a: x, b: y}
        for axis in range(len(axes)):
            if axis in chosen:
                continue
            def gain(value):
                trial = {**chosen, axis: value}
                probe = Case(*(trial.get(i, axes[i][0]) for i in range(len(axes))))
                if not allowed(probe):
                    return -1
                return sum(
                    ((i, v), (axis, value)) in uncovered or
                    ((axis, value), (i, v)) in uncovered
                    for i, v in chosen.items()
                )
            chosen[axis] = max(axes[axis], key=gain)
        case = Case(*(chosen[i] for i in range(len(axes))))
        assert allowed(case), case
        uncovered -= pairs(case)
        cases.append(case)
    return cases


def sound(case):
    return valid(case) and known_defect(case) is None


#: Every pair of axis values that some sound case holds, in ~100 cases.
SAMPLE = pairwise(AXES, sound)
#: One case per engine a known defect breaks, each a strict expected failure.
DEFECTS = [Case("lookalikes", "count", engine) for engine in HASH_ROUTED] + [
    Case("floats", "sum", engine) for engine in PARTIAL_MERGING
]


def expect(case):
    """:func:`check_case`, which a case with a known defect must fail."""
    if known_defect(case) is None:
        return check_case(case)
    with pytest.raises((AssertionError, ValueError)):
        check_case(case)


def test_sample_holds_every_pair():
    held = {pair for case in SAMPLE for pair in combinations(enumerate(case), 2)}
    for values in product(*AXES):
        if sound(Case(*values)):
            assert set(combinations(enumerate(values), 2)) <= held, values


@pytest.mark.parametrize("case", SAMPLE, ids="-".join)
def test_sample(case):
    check_case(case)


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, raises=(AssertionError, ValueError), reason=known_defect(case)
    ))
    for case in DEFECTS
], ids="-".join)
def test_known_defect(case):
    check_case(case)


@pytest.mark.exhaustive
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("input_name", INPUTS)
def test_every_case(input_name, aggregate, engine):
    for rest in product(ORDERS, FAULTS, SURFACES):
        case = Case(input_name, aggregate, engine, *rest)
        if valid(case):
            expect(case)
    traced_run.cache_clear()  # bounded memory over the whole product
    check_case.cache_clear()


@pytest.mark.parametrize("aggregate", sorted(registered_aggregates()))
def test_every_registered_aggregate_on_the_naive_engine(aggregate):
    for input_name in ("none", "floats", "heavy"):
        run = NaiveCube(cluster(input_name), get_aggregate(aggregate)).compute(
            relation(input_name)
        )
        assert run.cube == oracle(input_name, aggregate)


def assert_tracing_changes_nothing(case):
    """Tracing is observation-only: a traced run's simulation is the
    untraced serial run's, and the derivations did run."""
    traced = traced_run(*case[:5])
    untraced = untraced_run(*case[:3], "serial", case.fault)
    assert traced.simulation == simulation(untraced)
    assert traced.live.telemetry.registry.get("repro_jobs_total").series()


# -- per-kernel oracles --------------------------------------------------------


def reference_walk(chunks, sketch, aggregate, covering=True, partial=True):
    """Algorithm 3 one record at a time, no memo: the mapper's oracle.

    Returns what a mapper hands the shuffle — ``{emission key: rows}`` and
    ``{skew key: (count, state)}``, every key as first seen — and the CPU
    it charges.
    """
    d = sketch.num_dimensions
    planner = plan_for_skew_bits if covering else plan_without_covering
    runs, partials, cpu = {}, {}, 0
    for row in (row for chunk in chunks for row in chunk):
        cpu += 1 << d
        plan = planner(sketch.skew_bits(row) if partial else 0, d)
        for mask in plan.skewed_masks:
            key = ("S", mask, project(row, mask, d))
            count, state = partials.get(key, (0, aggregate.create()))
            partials[key] = (count + 1, aggregate.add(state, row[-1]))
        for base, _covered in plan.emissions:
            runs.setdefault(("G", base, project(row, base, d)), []).append(row)
    return runs, partials, cpu


def kernel_walk(chunks, sketch, aggregate, covering=True, partial=True):
    """The same three observables from ``_CubeMapper.map_chunk`` + ``close``."""
    d = sketch.num_dimensions
    mapper = _CubeMapper(d, aggregate, _PlanFunction(sketch, covering, partial))
    context = TaskContext(0, 4, 32)
    mapper.setup(context)
    runs, records = {}, 0
    for chunk in chunks:
        count, chunk_runs = mapper.map_chunk(chunk)
        records += count
        for key, rows in chunk_runs.items():
            runs.setdefault(key, []).extend(rows)
    assert records == sum(map(len, chunks))
    return runs, dict(mapper.close()), context.extra_cpu


def assert_kernel_matches_reference(chunks, sketch, aggregate, **switches):
    want_runs, want_partials, want_cpu = reference_walk(
        chunks, sketch, aggregate, **switches
    )
    runs, partials, cpu = kernel_walk(chunks, sketch, aggregate, **switches)
    assert runs == want_runs
    assert partials == want_partials
    # == is blind to 1 / True / 1.0: the first-seen key (and with it the
    # key's shuffled byte size) must be the very one the walk saw first.
    for got, want in ((runs, want_runs), (partials, want_partials)):
        assert sorted(map(repr, got)) == sorted(map(repr, want))
        assert sum(map(estimate_bytes, got)) == sum(map(estimate_bytes, want))
    assert cpu == want_cpu


def counted_sketch(rows, d, threshold, sample_every=1):
    """A sketch whose skewed groups are those with more than ``threshold``
    rows among every ``sample_every``-th row: exact (1), sampled (>1),
    all-skewed (threshold 0) or empty (threshold >= len(rows)).  Counting
    is monotone by construction; no partition elements (mappers do not
    route)."""
    sample = rows[::sample_every]
    return SPSketch(d, 4, {
        mask: CuboidSketch({
            values: count
            for values, count in Counter(
                project(row, mask, d) for row in sample
            ).items()
            if count > threshold
        })
        for mask in range(1 << d)
    })


KERNEL_AGGREGATES = ["count", "sum", "avg", "min", "max", "top_k"]
#: Per-column value families; the look-alikes are equal and hash-equal.
COLUMNS = [
    st.integers(0, 2),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([1, True, 1.0, 0, False]),
    st.sampled_from([None, "x", 0]),
]
#: Measures whose sum depends on the order of the additions.
FLOAT_MEASURES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1, 2.5])


@st.composite
def mapper_cases(draw, measures=st.integers(-5, 9), min_rows=0):
    d = draw(st.integers(1, 4))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in range(d)]
    rows = draw(st.lists(
        st.tuples(*columns, measures), min_size=min_rows, max_size=40
    ))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    chunks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
    kind = draw(st.sampled_from(["exact", "sampled", "empty", "all"]))
    threshold = {"empty": len(rows), "all": 0}.get(
        kind, draw(st.integers(1, 4))
    )
    sketch = counted_sketch(
        rows, d, threshold, sample_every=2 if kind == "sampled" else 1
    )
    return chunks, sketch


def reference_reduce(
    grouped, sketch, aggregate, min_size=1, covering=True, partial=True
):
    """Algorithm 3's reducer one base group, one row at a time, no memo:
    the reducer's oracle.  Returns ``{group: value}`` and the CPU charged."""
    d = sketch.num_dimensions
    planner = plan_for_skew_bits if covering else plan_without_covering
    out, cpu = {}, 0
    for (tag, base, values), entries in grouped.items():
        groups = {}
        if tag == "S":
            groups[(base, values)] = (
                sum(count for count, _state in entries),
                reduce(aggregate.merge, (s for _c, s in entries),
                       aggregate.create()),
            )
        for row in entries if tag == "G" else ():
            plan = planner(sketch.skew_bits(row) if partial else 0, d)
            for mask in plan.covered_by[base]:
                cpu += 1
                key = (mask, project(row, mask, d))
                count, state = groups.get(key, (0, aggregate.create()))
                groups[key] = (count + 1, aggregate.add(state, row[-1]))
        for key, (count, state) in groups.items():
            assert key not in out  # every c-group has one home
            if count >= min_size:
                out[key] = aggregate.finalize(state)
    return out, cpu


def assert_reduce_kernel_matches_reference(
    chunks, sketch, aggregate, min_size=1, covering=True, partial=True,
    warm_memo=True,
):
    """One reduce task fed everything the mappers (one per chunk) emit."""
    grouped = {}
    for chunk in chunks:
        runs, partials, _cpu = reference_walk(
            [chunk], sketch, aggregate, covering, partial
        )
        for key, rows in runs.items():
            grouped.setdefault(key, []).extend(rows)
        for key, entry in partials.items():
            grouped.setdefault(key, []).append(entry)
    want, want_cpu = reference_reduce(
        grouped, sketch, aggregate, min_size, covering, partial
    )
    plan = _PlanFunction(sketch, covering, partial)
    if warm_memo:  # what mappers sharing the reducer's process leave behind
        for chunk in chunks:
            plan.plans_of(chunk)
    reducer = _CubeReducer(sketch.num_dimensions, aggregate, plan, min_size)
    context = TaskContext(0, 4, 32)
    reducer.setup(context)
    blocks = reducer.reduce_runs(
        _ordered_keys(grouped), {key: list(v) for key, v in grouped.items()}
    )
    assert len({block.mask for block in blocks}) == len(blocks)
    pairs = [pair for block in blocks for pair in block.pairs()]
    got = dict(pairs)
    assert len(got) == len(pairs)
    assert got == want
    # Keys as first seen (1 / True / 1.0), values to the last bit.
    assert {repr(k): repr(v) for k, v in got.items()} == {
        repr(k): repr(v) for k, v in want.items()
    }
    assert sum(map(estimate_bytes, got)) == sum(map(estimate_bytes, want))
    assert context.extra_cpu == want_cpu
    # Through the engine the blocks are counted and charged as the pairs
    # they stand for, whatever the key and value types.
    job = MapReduceJob(
        "sp-cube", None,
        TaskFactory(_CubeReducer, sketch.num_dimensions, aggregate, plan, min_size),
    )
    task, output = _ReduceTask(
        job, 0, [grouped], sum(map(len, grouped.values())), 0, 1 << 30, 4, 32,
        CostModel(), NO_FAULTS, RetryPolicy(),
    )._attempt()
    assert all(type(block) is Block for block in output)
    assert repr(sorted(output)) == repr(sorted(blocks))
    assert task.records_out == len(pairs)
    assert task.bytes_out == sum(pair_bytes(*pair) for pair in pairs)


@lru_cache(maxsize=None)
def check_kernels(input_name, kernel):
    """One round-2 kernel, ``"map"`` or ``"reduce"``, against its oracle
    on one input in three map tasks, under every aggregate of
    :data:`KERNEL_AGGREGATES`: every skew threshold from all-skewed to
    none on a small input, the exact sketch at the input's own ``m`` and
    at a quarter of it on a large one, with and without the ablation
    switches; the reducer under iceberg cuts of 1 to 3 rows.  Not for
    ``floats``: the mapper rolls coarse partial states up from finer
    ones, so inexact float partial sums are not left folds
    (``test_kernel_identity`` checks float measures on the reducer
    alone)."""
    rows = relation(input_name).rows
    d = relation(input_name).schema.num_dimensions
    third = max(1, len(rows) // 3)
    chunks = [rows[:third], rows[third:2 * third], rows[2 * third:]]
    if len(rows) <= 40:
        sketches = [counted_sketch(rows, d, t) for t in (0, 1, 2, len(rows))]
    else:
        m = INPUTS[input_name][1]
        sketches = [
            build_exact_sketch(relation(input_name), 4, t) for t in (m, m // 4)
        ]
    for sketch, name, switch in product(sketches, KERNEL_AGGREGATES, (True, False)):
        aggregate = get_aggregate(name)
        if kernel == "map":
            assert_kernel_matches_reference(
                chunks, sketch, aggregate, covering=switch, partial=switch
            )
            continue
        for min_size in (1, 3) if switch else (2,):
            assert_reduce_kernel_matches_reference(
                chunks, sketch, aggregate, min_size, switch, not switch
            )
