"""The shuffle's one representation: key-grouped runs, map to reduce.

Map output is ``key -> [values]`` from the mapper to the reducer (see
``engine._route_runs``).  These tests sit where that representation can
bite: error attribution without a per-pair replay, re-run attempts that
must see the runs a crashed attempt saw, backends that must agree byte
for byte, flow accounting that counts records through runs, the
combiner path (which folds runs into runs), and the task-level
``Reducer.reduce_runs`` hook, which hands a reducer all of them at once.
"""

import sys
import threading
from dataclasses import asdict

import pytest

from repro.aggregates import get_aggregate
from repro.baselines import HiveCube, MRCube, NaiveCube
from repro.core import SPCube
from repro.core.spcube import _PlanFunction
from repro.cubing import sequential_cube
from repro.datagen import adversarial_relation, gen_binomial
from repro.mapreduce import (
    Block,
    ClusterConfig,
    FaultPlan,
    FaultSpec,
    Mapper,
    MapReduceJob,
    PairFormatError,
    Reducer,
    TaskFactory,
    run_job,
)
from repro.observability import LineageIndex, MemorySink, Tracer
from repro.observability.tracer import LEVEL_DEBUG

BACKEND_FIELDS = (
    "executor", "map_phase_wall_seconds", "reduce_phase_wall_seconds",
)


def word_count_job(**kwargs):
    def map_fn(record):
        for word in record.split():
            yield word, 1

    def reduce_fn(key, values):
        yield key, sum(values)

    return MapReduceJob.from_functions("wordcount", map_fn, reduce_fn, **kwargs)


def null_reduce(key, values):
    return ()


class _FlushingMapper(Mapper):
    def __init__(self, flushed):
        self._flushed = flushed

    def map(self, record):
        yield record, 1

    def close(self):
        return self._flushed


class _MutatingReducer(Reducer):
    """Abuses its values list the way no reducer should; a re-run attempt
    must still be handed what the first attempt was handed."""

    def reduce(self, key, values):
        values.sort(reverse=True)
        yield key, tuple(values)
        values.append("tainted")
        del values[0]


class _SumPerKey(Reducer):
    def reduce(self, key, values):
        yield key, sum(values)


class _SumPerTask(Reducer):
    """The same reducer through the task-level hook only."""

    def reduce_runs(self, keys, runs):
        return [(key, sum(runs[key])) for key in keys]


class _RunWrecker(Reducer):
    """A ``reduce_runs`` that treats its runs as scratch space — the
    hook's contract says they are the attempt's own copies."""

    def reduce_runs(self, keys, runs):
        first = runs[keys[0]]
        for key in keys[1:]:
            first += runs[key]
            runs[key].clear()
        first.sort()
        del runs[keys[-1]]
        return [("all", tuple(first))]


class _SumPerCuboid(Reducer):
    """``(mask, group)`` keys summed into one block per mask, next to a
    plain pair: the shapes a reducer may mix."""

    def reduce_runs(self, keys, runs):
        blocks = {}
        for mask, group in keys[1:]:
            block = blocks.setdefault(mask, Block(mask, [], []))
            block.groups.append(group)
            block.values.append(sum(runs[mask, group]))
        return [(keys[0], sum(runs[keys[0]])), *blocks.values()]


class _LopsidedBlock(Reducer):
    def reduce_runs(self, keys, runs):
        return [Block(5, [("a",), ("b",)], [1])]


class _NonPairRuns(Reducer):
    def reduce_runs(self, keys, runs):
        return [("fine", 1), "xyz"]


class _PairMapper(Mapper):
    """Records are already ``(key, value)`` pairs."""

    def map(self, record):
        yield record


class TestErrorAttribution:
    def test_out_of_range_partitioner_names_the_key(self):
        def bad(key, num_reducers):
            return num_reducers

        with pytest.raises(
            ValueError, match=r"routed key 'a' to reducer 3 of 3"
        ):
            run_job(
                word_count_job(partitioner=bad), [["a a"]],
                ClusterConfig(num_machines=3), 10,
            )

    def test_unhashable_map_key_is_a_one_line_typed_error(self):
        job = MapReduceJob.from_functions(
            "badkey", lambda record: [("ok", 1), ([record], 2)], null_reduce
        )
        with pytest.raises(PairFormatError) as caught:
            run_job(job, [[], ["x"]], ClusterConfig(num_machines=2), 10)
        message = str(caught.value)
        assert message == (
            "job 'badkey': map task 1 emitted unhashable key ['x']"
        )

    def test_unhashable_combiner_key_names_the_combiner(self):
        def combiner(key, values):
            yield {key}, sum(values)

        with pytest.raises(
            PairFormatError, match=r"'wordcount': combiner task 0.*\{'a'\}"
        ):
            run_job(
                word_count_job(combiner=combiner), [["a"]],
                ClusterConfig(num_machines=1), 10,
            )

    def test_non_pair_from_close_is_named(self):
        job = MapReduceJob(
            name="badclose",
            mapper_factory=TaskFactory(_FlushingMapper, [("k", 1), "xyz"]),
            reducer_factory=TaskFactory(Reducer),
        )
        with pytest.raises(
            PairFormatError, match=r"'badclose': map task 0 emitted 'xyz'"
        ):
            run_job(job, [["r"]], ClusterConfig(num_machines=1), 10)

    def test_a_type_error_inside_user_code_is_not_relabelled(self):
        def map_fn(record):
            yield "fine", 1
            yield "oops", len(record)  # TypeError: an int has no len()

        job = MapReduceJob.from_functions("usererr", map_fn, null_reduce)
        with pytest.raises(TypeError, match="has no len") as caught:
            run_job(job, [[7]], ClusterConfig(num_machines=1), 10)
        assert not isinstance(caught.value, PairFormatError)


class TestRerunSeesTheSameRuns:
    CHUNKS = [
        [("a", 3), ("b", 1), ("a", 1)],
        [("a", 2), ("c", 5)],
        [("b", 4), ("a", 9)],
    ]

    def run(self, fault_plan=None, reducer=_MutatingReducer):
        job = MapReduceJob(
            name="mutating",
            mapper_factory=TaskFactory(_PairMapper),
            reducer_factory=TaskFactory(reducer),
            num_reducers=1,
        )
        return run_job(
            job, self.CHUNKS,
            ClusterConfig(num_machines=3, fault_plan=fault_plan), 10,
        )

    def test_crashed_reduce_attempt_reruns_on_unmutated_runs(self):
        clean = self.run()
        assert dict(clean.output) == {
            "a": (9, 3, 2, 1), "b": (4, 1), "c": (5,),
        }
        crashed = self.run(FaultPlan(
            [FaultSpec("crash", phase="reduce", task=0, attempt=0)]
        ))
        assert crashed.metrics.killed_tasks == 1
        assert crashed.metrics.recovered == 1
        assert crashed.output == clean.output
        assert (
            crashed.metrics.reduce_tasks[0].records_in
            == clean.metrics.reduce_tasks[0].records_in
            == 7
        )

    def test_crashed_attempt_reruns_a_reduce_runs_that_wrecks_its_runs(self):
        clean = self.run(reducer=_RunWrecker)
        assert clean.output == [("all", (1, 1, 2, 3, 4, 5, 9))]
        crashed = self.run(
            FaultPlan([FaultSpec("crash", phase="reduce", task=0, attempt=0)]),
            reducer=_RunWrecker,
        )
        assert crashed.metrics.recovered == 1
        assert crashed.output == clean.output

    def test_crashed_map_attempt_contributes_nothing(self):
        clean = self.run()
        crashed = self.run(FaultPlan(
            [FaultSpec("crash", phase="map", task=1, attempt=0)]
        ))
        assert crashed.output == clean.output
        assert (
            crashed.metrics.map_output_records
            == clean.metrics.map_output_records
        )


class TestReduceRunsHook:
    CHUNKS = [[("a", 3), ("b", 1), ("a", 1)], [("a", 2), ("c", 5)]]

    def run(self, reducer):
        job = MapReduceJob(
            name="hook",
            mapper_factory=TaskFactory(_PairMapper),
            reducer_factory=TaskFactory(reducer),
        )
        return run_job(job, self.CHUNKS, ClusterConfig(num_machines=2), 10)

    def test_reduce_and_reduce_runs_overrides_are_one_job(self):
        per_key, per_task = self.run(_SumPerKey), self.run(_SumPerTask)
        assert dict(per_key.output) == {"a": 6, "b": 1, "c": 5}
        assert per_task.output == per_key.output
        per_key_metrics = asdict(per_key.metrics)
        per_task_metrics = asdict(per_task.metrics)
        for name in BACKEND_FIELDS:
            del per_key_metrics[name], per_task_metrics[name]
        assert repr(per_task_metrics) == repr(per_key_metrics)

    def test_blocks_are_counted_and_charged_as_their_pairs(self):
        chunks = [
            [((1, ("a",)), 3), ((2, ("b", None)), 1), ((1, ("a",)), 1)],
            [((1, (True,)), 2), ((2, ("c", 1.5)), 5), ((1, ("a",)), 4)],
        ]
        job = MapReduceJob(
            name="hook", mapper_factory=TaskFactory(_PairMapper),
            reducer_factory=TaskFactory(_SumPerKey), num_reducers=1,
        )
        blocked = MapReduceJob(
            name="hook", mapper_factory=TaskFactory(_PairMapper),
            reducer_factory=TaskFactory(_SumPerCuboid), num_reducers=1,
        )
        cluster = ClusterConfig(num_machines=2)
        per_key = run_job(job, chunks, cluster, 10)
        per_cuboid = run_job(blocked, chunks, cluster, 10)
        assert len(per_key.output) == 4
        blocks = [item for item in per_cuboid.output if type(item) is Block]
        pairs = [item for item in per_cuboid.output if type(item) is not Block]
        assert sorted(b.mask for b in blocks) == [1, 2] and len(pairs) == 1
        assert per_cuboid.reducer_outputs == [per_cuboid.output]
        expanded = pairs + [pair for b in blocks for pair in b.pairs()]
        assert sorted(map(repr, expanded)) == sorted(map(repr, per_key.output))
        per_key_metrics = asdict(per_key.metrics)
        per_cuboid_metrics = asdict(per_cuboid.metrics)
        for name in BACKEND_FIELDS:
            del per_key_metrics[name], per_cuboid_metrics[name]
        assert repr(per_cuboid_metrics) == repr(per_key_metrics)

    def test_lopsided_block_is_named(self):
        with pytest.raises(PairFormatError) as caught:
            self.run(_LopsidedBlock)
        assert str(caught.value) == (
            "job 'hook': reduce task 0 emitted a block of cuboid 5 with "
            "2 groups but 1 values"
        )

    def test_non_pair_from_reduce_runs_is_named(self):
        with pytest.raises(PairFormatError) as caught:
            self.run(_NonPairRuns)
        assert str(caught.value).startswith(
            "job 'hook': reduce task 0 emitted 'xyz'"
        )


class TestBackendsAgree:
    def traced_run(self, engine_cls, relation, parallelism):
        sink = MemorySink()
        cluster = ClusterConfig(
            num_machines=4, memory_records=64, parallelism=parallelism,
            tracer=Tracer([sink], level=LEVEL_DEBUG),
        )
        run = engine_cls(cluster, get_aggregate("avg")).compute(relation)
        return run, sink.records

    def test_serial_and_three_workers_are_byte_identical(self):
        self.assert_backends_agree(SPCube)

    @pytest.mark.parametrize("engine_cls", [NaiveCube, HiveCube, MRCube])
    def test_baseline_engines_are_byte_identical(self, engine_cls):
        self.assert_backends_agree(engine_cls)

    def test_state_the_threads_share_changes_nothing(self, monkeypatch):
        """What was per-process is shared by the interleaved tasks: the
        round's one plan memo — cleared under its readers here — and the
        sketch's lazily built probe list."""
        relation = adversarial_relation(4, 300, seed=17)
        monkeypatch.setattr(_PlanFunction, "_MEMO_LIMIT", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sketch = self.assert_backends_agree(SPCube, relation, 4).sketch
            assert sketch.num_skewed
            sketch._probes = None  # the debug trace's routing replay built it
            barrier, seen = threading.Barrier(2), []

            def probe():
                barrier.wait(timeout=10)
                seen.append([sketch.skew_bits(row) for row in relation.rows])

            threads = [threading.Thread(target=probe) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen == [sketch.skew_bits_of(relation.rows)] * 2

    def assert_backends_agree(self, engine_cls, relation=None, workers=3):
        relation = relation or gen_binomial(500, 0.3, seed=4)
        serial, serial_trace = self.traced_run(engine_cls, relation, None)
        parallel, parallel_trace = self.traced_run(
            engine_cls, relation, workers
        )
        assert list(parallel.cube.items()) == list(serial.cube.items())
        assert repr(parallel_trace) == repr(serial_trace)
        assert any(r.get("kind") == "flow" for r in serial_trace)
        assert {job.executor for job in parallel.metrics.jobs} == {"parallel"}
        for serial_job, parallel_job in zip(
            serial.metrics.jobs, parallel.metrics.jobs
        ):
            serial_dict, parallel_dict = asdict(serial_job), asdict(parallel_job)
            for name in BACKEND_FIELDS:
                del serial_dict[name], parallel_dict[name]
            assert repr(parallel_dict) == repr(serial_dict)
        return parallel


class TestFlowAccounting:
    @pytest.mark.parametrize("engine_cls", [SPCube, NaiveCube, MRCube])
    def test_flows_and_cuboids_sum_to_map_output(self, engine_cls):
        lineage = LineageIndex()
        cluster = ClusterConfig(
            num_machines=4, memory_records=64,
            tracer=Tracer([lineage], level=LEVEL_DEBUG),
        )
        run = engine_cls(cluster).compute(gen_binomial(400, 0.3, seed=9))
        assert len(lineage.jobs) == len(run.metrics.jobs)
        classified = 0
        for flow_job, job in zip(lineage.jobs.values(), run.metrics.jobs):
            flows = flow_job["flows"]
            assert sum(f["records"] for f in flows) == job.map_output_records
            assert sum(f["bytes"] for f in flows) == job.map_output_bytes
            for flow in flows:
                if flow["cuboids"]:
                    classified += 1
                    assert sum(flow["cuboids"].values()) == flow["records"]
            loads = [0] * len(job.reduce_tasks)
            for flow in flows:
                loads[flow["reducer"]] += flow["records"]
            assert loads == [task.records_in for task in job.reduce_tasks]
        assert classified


class TestCombinerPath:
    """Cubes and ``JobMetrics`` of the two combiner engines, pinned to
    what the pair-list engine produced on this input (``gen_binomial(500,
    0.3, seed=4)``, 4 machines, ``avg``): per job ``(name, map output
    records, bytes, simulated seconds, map cpu ops, reduce cpu ops)``."""

    PINNED = {
        "naive+combiner": [
            ("naive-cube", 6259, 425961, 30.6624409, 22759, 11750),
        ],
        "mrcube": [
            ("mrcube-sample", 57, 2964, 11.1562212, 557, 969),
            ("mrcube-materialize", 6287, 333340, 30.173318, 22787, 11785),
            ("mrcube-postagg", 8, 288, 10.0177904, 16, 9),
        ],
    }

    @pytest.mark.parametrize("engine", sorted(PINNED))
    def test_cube_and_metrics_unchanged(self, engine):
        relation = gen_binomial(500, 0.3, seed=4)
        cluster = ClusterConfig(num_machines=4, memory_records=64)
        aggregate = get_aggregate("avg")
        if engine == "mrcube":
            run = MRCube(cluster, aggregate).compute(relation)
        else:
            run = NaiveCube(cluster, aggregate, use_combiner=True).compute(
                relation
            )
        assert run.cube == sequential_cube(relation, aggregate)
        assert [
            (
                job.name, job.map_output_records, job.map_output_bytes,
                round(job.total_seconds, 9),
                sum(task.cpu_ops for task in job.map_tasks),
                sum(task.cpu_ops for task in job.reduce_tasks),
            )
            for job in run.metrics.jobs
        ] == self.PINNED[engine]
