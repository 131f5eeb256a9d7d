"""The MapReduce engine: data flow, combiners, partitioners, metrics."""

import weakref
from dataclasses import asdict, replace

import pytest

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.cubing import sequential_cube
from repro.datagen import gen_zipf
from repro.mapreduce import (
    ClusterConfig,
    FaultPlan,
    FaultSpec,
    Mapper,
    MapReduceJob,
    Reducer,
    TaskFactory,
    hash_partitioner,
    run_job,
    stable_hash,
)
from repro.mapreduce.faults import NodeFaultSpec


def word_count_job(**kwargs):
    def map_fn(record):
        for word in record.split():
            yield word, 1

    def reduce_fn(key, values):
        yield key, sum(values)

    return MapReduceJob.from_functions("wordcount", map_fn, reduce_fn, **kwargs)


@pytest.fixture
def cluster():
    return ClusterConfig(num_machines=3)


class TestBasicExecution:
    def test_word_count(self, cluster):
        chunks = [["a b a"], ["b c"], ["a"]]
        result = run_job(word_count_job(), chunks, cluster, memory_records=10)
        assert dict(result.output) == {"a": 3, "b": 2, "c": 1}

    def test_empty_input(self, cluster):
        result = run_job(word_count_job(), [[], [], []], cluster, 10)
        assert result.output == []
        assert result.metrics.map_output_records == 0

    def test_reducer_outputs_collected_per_task(self, cluster):
        chunks = [["a b c d e f"]]
        result = run_job(word_count_job(), chunks, cluster, 10)
        assert len(result.reducer_outputs) == cluster.num_machines
        flattened = [p for out in result.reducer_outputs for p in out]
        assert sorted(flattened) == sorted(result.output)

    def test_num_reducers_override(self, cluster):
        job = word_count_job(num_reducers=1)
        result = run_job(job, [["a b"], ["c"]], cluster, 10)
        assert len(result.metrics.reduce_tasks) == 1

    def test_keys_processed_in_sorted_order(self, cluster):
        job = word_count_job(num_reducers=1)
        result = run_job(job, [["c a b"]], cluster, 10)
        assert [key for key, _count in result.output] == ["a", "b", "c"]


class TestStatefulMapper:
    def test_close_emits_final_pairs(self, cluster):
        class SummingMapper(Mapper):
            def setup(self, context):
                super().setup(context)
                self.total = 0

            def map(self, record):
                self.total += record
                return ()

            def close(self):
                yield "total", self.total

        class PassReducer(Reducer):
            def reduce(self, key, values):
                yield key, sum(values)

        job = MapReduceJob(
            "sums", SummingMapper, PassReducer, num_reducers=1
        )
        result = run_job(job, [[1, 2], [3]], cluster, 10)
        # One partial total per mapper, merged by the single reducer.
        assert result.output == [("total", 6)]

    def test_mapper_state_isolated_per_task(self, cluster):
        instances = []

        class Recording(Mapper):
            def __init__(self):
                instances.append(self)

            def map(self, record):
                return ()

        class Null(Reducer):
            def reduce(self, key, values):
                return ()

        job = MapReduceJob("iso", Recording, Null)
        run_job(job, [[1], [2], [3]], cluster, 10)
        assert len(instances) == 3
        assert len(set(map(id, instances))) == 3


class TestCombiner:
    def test_combiner_reduces_map_output(self, cluster):
        def combiner(key, values):
            yield key, sum(values)

        with_combiner = run_job(
            word_count_job(combiner=combiner), [["a a a a"]], cluster, 10
        )
        without = run_job(word_count_job(), [["a a a a"]], cluster, 10)
        assert with_combiner.metrics.map_output_records == 1
        assert without.metrics.map_output_records == 4
        assert dict(with_combiner.output) == dict(without.output)

    def test_combiner_applies_per_map_task(self, cluster):
        def combiner(key, values):
            yield key, sum(values)

        result = run_job(
            word_count_job(combiner=combiner), [["a a"], ["a"]], cluster, 10
        )
        # One combined record per mapper that saw "a".
        assert result.metrics.map_output_records == 2
        assert dict(result.output) == {"a": 3}


class TestPartitioner:
    def test_custom_partitioner_routes_keys(self, cluster):
        def to_zero(key, num_reducers):
            return 0

        result = run_job(
            word_count_job(partitioner=to_zero), [["a b c"]], cluster, 10
        )
        loads = result.metrics.reducer_input_records
        assert loads[0] == 3
        assert sum(loads[1:]) == 0

    def test_out_of_range_partitioner_rejected(self, cluster):
        def bad(key, num_reducers):
            return num_reducers

        with pytest.raises(ValueError, match="routed key"):
            run_job(word_count_job(partitioner=bad), [["a"]], cluster, 10)

    def test_hash_partitioner_in_range(self):
        for key in ["a", ("b", 1), 42]:
            assert 0 <= hash_partitioner(key, 7) < 7

    def test_stable_hash_deterministic(self):
        assert stable_hash(("x", 1)) == stable_hash(("x", 1))
        assert stable_hash("a") != stable_hash("b")


class TestMetricsAccounting:
    def test_bytes_conservation(self, cluster):
        """Map output bytes equal the sum of reducer input bytes."""
        chunks = [["a b c d"], ["a a"], []]
        result = run_job(word_count_job(), chunks, cluster, 10)
        assert result.metrics.map_output_bytes == sum(
            t.bytes_in for t in result.metrics.reduce_tasks
        )

    def test_record_conservation(self, cluster):
        chunks = [["a b"], ["c d e"]]
        result = run_job(word_count_job(), chunks, cluster, 10)
        assert result.metrics.map_output_records == sum(
            result.metrics.reducer_input_records
        )

    def test_map_records_in(self, cluster):
        result = run_job(word_count_job(), [["x", "y"], ["z"]], cluster, 10)
        assert sum(t.records_in for t in result.metrics.map_tasks) == 3

    def test_phase_times_positive(self, cluster):
        result = run_job(word_count_job(), [["a"]], cluster, 10)
        metrics = result.metrics
        assert metrics.map_phase_seconds > 0
        assert metrics.reduce_phase_seconds > 0
        assert metrics.total_seconds == pytest.approx(
            metrics.map_phase_seconds
            + metrics.shuffle_seconds
            + metrics.reduce_phase_seconds
        )

    def test_spill_accounting(self, cluster):
        chunks = [["a " * 50], [], []]
        result = run_job(word_count_job(num_reducers=1), chunks, cluster, 5)
        task = result.metrics.reduce_tasks[0]
        physical = cluster.physical_memory(5)
        assert task.spilled_records == 50 - physical

    def test_peak_group_records(self, cluster):
        chunks = [["a a a b"]]
        result = run_job(word_count_job(num_reducers=1), chunks, cluster, 10)
        assert result.metrics.reduce_tasks[0].peak_group_records == 3


class TestFailureFlagging:
    def _job(self, **kwargs):
        return word_count_job(num_reducers=2, **kwargs)

    def test_no_flag_by_default(self, cluster):
        chunks = [["a " * 100]]
        result = run_job(self._job(), chunks, cluster, 4)
        assert not result.metrics.failed

    def test_forced_failure_flag(self, cluster):
        result = run_job(self._job(), [["a"]], cluster, 10)
        assert not result.metrics.failed
        result.metrics.forced_failure = True
        assert result.metrics.failed


class TestContext:
    def test_extra_cpu_charged(self, cluster):
        class Busy(Mapper):
            def map(self, record):
                self.context.add_cpu(100)
                return ()

        class Null(Reducer):
            def reduce(self, key, values):
                return ()

        job = MapReduceJob("busy", Busy, Null)
        result = run_job(job, [[1]], cluster, 10)
        assert result.metrics.map_tasks[0].cpu_ops == 1 + 100

    def test_context_exposes_cluster_facts(self, cluster):
        seen = {}

        class Probe(Mapper):
            def setup(self, context):
                super().setup(context)
                seen[context.machine] = (
                    context.num_machines,
                    context.memory_records,
                )

            def map(self, record):
                return ()

        class Null(Reducer):
            def reduce(self, key, values):
                return ()

        run_job(MapReduceJob("probe", Probe, Null), [[1], [2]], cluster, 99)
        assert seen == {0: (3, 99), 1: (3, 99)}


class TestCloseThroughCombiner:
    def test_close_emitted_pairs_are_combined(self, cluster):
        """Pairs flushed from close() must pass through the combiner with
        the map()-emitted ones — the SP-Cube partial-aggregate path."""

        class PartialMapper(Mapper):
            def setup(self, context):
                super().setup(context)
                self.pending = 0

            def map(self, record):
                self.pending += record
                yield "k", record  # one live pair per record...

            def close(self):
                yield "k", self.pending  # ...plus one flushed partial

        class SumReducer(Reducer):
            def reduce(self, key, values):
                yield key, sum(values)

        def combiner(key, values):
            yield key, sum(values)

        job = MapReduceJob(
            "flush",
            PartialMapper,
            SumReducer,
            combiner=combiner,
            num_reducers=1,
        )
        result = run_job(job, [[1, 2], [4]], cluster, 10)
        # Each mapper's map() pairs AND its close() partial collapse into
        # a single combined record per map task.
        assert result.metrics.map_output_records == 2
        assert result.output == [("k", 14)]


class TestStableHash:
    KEYS = [
        "word",
        "",
        0,
        -17,
        12345678901234567890,
        (3, ("a", "b")),
        (0b101, ("x", None)),
        None,
        True,
        ("nested", (1, (2, (3,)))),
    ]

    def test_deterministic_across_calls(self):
        for key in self.KEYS:
            assert stable_hash(key) == stable_hash(key)

    def test_equal_values_hash_equal(self):
        # Separately constructed but equal objects must agree — reducer
        # routing depends on it across map tasks and attempts.
        assert stable_hash((3, ("a", "b"))) == stable_hash(
            (1 + 2, tuple("ab"))
        )
        assert stable_hash("ab" + "c") == stable_hash("abc")

    def test_known_values_pinned(self):
        # CRC32-of-repr is process- and run-independent; pin a couple of
        # values so an accidental change to the scheme is caught.  A bool
        # is hashed as the int it equals.
        import zlib

        for key in self.KEYS:
            canonical = 1 if key is True else key
            assert stable_hash(key) == zlib.crc32(repr(canonical).encode())

    def test_partitioner_in_range_for_all_key_types(self):
        for key in self.KEYS:
            for num_reducers in (1, 3, 7):
                assert 0 <= hash_partitioner(key, num_reducers) < num_reducers

    #: Hard-coded CRC32-of-repr values.  These pin the *scheme itself*:
    #: if a fast path ever diverges from crc32(repr(key)), partition
    #: assignments — and therefore every metric in EXPERIMENTS.md —
    #: silently shift.  Do not regenerate these from the implementation.
    PINNED = {
        "word": 1882384465,
        0: 4108050209,
        -17: 2973019676,
        (3, ("a", "b")): 2300705876,
        ("k", 42): 2536021665,
        None: 3751981041,
        True: 2212294583,  # hashed as 1
    }

    def test_literal_pins(self):
        for key, expected in self.PINNED.items():
            assert stable_hash(key) == expected, key

    def test_equal_keys_of_different_type_hash_alike(self):
        # 1 == 1.0 == True and 0 == 0.0 == -0.0 == False: equal keys must
        # reach one reducer, whatever their reprs.  Other floats keep the
        # CRC of their own repr.
        import zlib

        one, zero = zlib.crc32(b"(1,)"), zlib.crc32(b"(0,)")
        for key in [(1,), (1.0,), (True,)]:
            assert stable_hash(key) == one, key
        for key in [(0,), (0.0,), (-0.0,), (False,)]:
            assert stable_hash(key) == zero, key
        assert stable_hash((0.5,)) == zlib.crc32(b"(0.5,)")
        assert stable_hash((2, (True, 3.0))) == stable_hash((2, (1, 3)))

    def test_fast_path_strings_match_repr_scheme(self):
        import zlib

        for key in ["", "plain", "with space", "quote's", "back\\slash",
                    "tab\there", "unicode-é"]:
            assert stable_hash(key) == zlib.crc32(repr(key).encode()), key


class TestMixedKeyOrdering:
    def test_uncomparable_keys_reduce_in_token_order(self, cluster):
        def map_fn(record):
            yield record, 1

        def reduce_fn(key, values):
            yield key, len(values)

        job = MapReduceJob.from_functions(
            "mixed", map_fn, reduce_fn, num_reducers=1
        )
        result = run_job(job, [[(2,), "a", 1]], cluster, 10)
        assert [key for key, _ in result.output] == [1, "a", (2,)]


class _RunList(list):
    """A run a weakref can watch (a plain ``list`` cannot be a referent)."""


class _WatchedMapper(Mapper):
    """Emits record ``n`` as the run ``[n]`` of key ``n`` and keeps a
    weakref to every run, by the reducer ``n % 3`` it routes to."""

    def __init__(self, watched):
        self._watched = watched

    def map_chunk(self, chunk):
        runs = {n: _RunList([n]) for n in chunk}
        for n, run in runs.items():
            self._watched.setdefault(n % 3, []).append(weakref.ref(run))
        return len(chunk), runs


class _LiveRunsReducer(Reducer):
    """Notes, as each attempt starts, how many watched runs of every
    reducer are still alive; sums its runs."""

    def __init__(self, watched, live):
        self._watched, self._live = watched, live

    def setup(self, context):
        super().setup(context)
        self._live[context.machine] = {
            j: sum(ref() is not None for ref in refs)
            for j, refs in self._watched.items()
        }

    def reduce(self, key, values):
        yield key, sum(values)


class TestBucketRelease:
    """A reduce task's shuffle input is freed when its attempt chain
    ends, not when the reduce phase does."""

    CHUNKS = [[0, 1, 2, 3], [4, 5, 6], [7, 8]]

    def run(self, cluster):
        watched, live = {}, {}
        job = MapReduceJob(
            "watched",
            mapper_factory=TaskFactory(_WatchedMapper, watched),
            reducer_factory=TaskFactory(_LiveRunsReducer, watched, live),
            num_reducers=3,
            partitioner=lambda key, n: key % n,
        )
        return run_job(job, self.CHUNKS, cluster, 10), live

    def test_bucket_is_freed_before_the_next_task_runs(self, cluster):
        result, live = self.run(cluster)
        assert sorted(result.output) == [(n, n) for n in range(9)]
        for j in range(3):
            # Earlier buckets are gone, this one and later ones are not.
            assert live[j] == {k: 0 if k < j else 3 for k in range(3)}

    def test_retried_attempt_still_reads_its_bucket(self):
        plan = FaultPlan(
            [FaultSpec("crash", phase="reduce", task=1, attempt=0)]
        )
        result, live = self.run(ClusterConfig(num_machines=3, fault_plan=plan))
        assert result.metrics.killed_tasks == 1
        assert live[1] == {0: 0, 1: 3, 2: 3}  # as the retry started
        assert sorted(result.output) == [(n, n) for n in range(9)]

    def test_parallel_matches_serial(self, cluster):
        serial, _ = self.run(cluster)
        parallel, _ = self.run(replace(cluster, parallelism=2))
        assert parallel.output == serial.output
        backend = ("executor", "map_phase_wall_seconds",
                   "reduce_phase_wall_seconds")
        metrics = [asdict(r.metrics) for r in (serial, parallel)]
        for fields in metrics:
            for name in backend:
                fields.pop(name)
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize("plan", [
        FaultPlan([FaultSpec("crash", job="sp-cube", phase="reduce",
                             task=2, attempt=0)]),
        FaultPlan(seed=5, node_specs=[
            NodeFaultSpec(node=2, at_seconds=30.0, job="sp-cube"),
        ]),
    ], ids=["reduce-crash", "node-kill"])
    def test_sp_cube_recovers_to_the_oracle(self, plan):
        relation = gen_zipf(2000, seed=3)
        cluster = replace(
            paper_cluster(2000, num_machines=6, num_nodes=3), fault_plan=plan
        )
        run = SPCube(cluster).compute(relation)
        cube_round = run.metrics.jobs[-1]
        assert cube_round.killed_tasks or run.metrics.jobs[-2].superseded
        assert run.cube == sequential_cube(relation)
