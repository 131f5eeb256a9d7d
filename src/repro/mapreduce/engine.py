"""The simulated MapReduce execution engine.

One :class:`MapReduceJob` describes a round: a mapper, a reducer, and
optionally a combiner and a custom partitioner — the same knobs Hadoop
exposes and the paper's algorithms rely on (custom range partitioner for
SP-Cube, combiners for Pig's MR-Cube).

Execution is deterministic and faithful to the distributed data flow:

* the input arrives pre-split into ``k`` chunks (one per map task);
* each map task runs its own mapper instance (so map-side state such as
  SP-Cube's partial aggregates is per-machine, exactly as on a cluster);
* map output is held as key-grouped *runs* (``key -> [values]`` in
  emission order — what Hadoop's sorted map output is), the engine's one
  shuffle representation: an optional combiner folds each run, the
  partitioner routes and sizes each run's key once, and reducers extend
  their groups run by run;
* each reduce task processes its keys in deterministic sorted order and
  spills (with a time penalty) when its input exceeds the machine's
  physical memory.

The engine returns the reduce output plus a :class:`JobMetrics` with all the
counters the paper's figures are built from.

**Execution backends.**  Each phase's tasks are self-contained
:class:`_Task` objects (one class for both phases, reading what a round
shares from one :class:`_Round`) executed by the cluster's task
executor (see :mod:`repro.mapreduce.executor`): the default
:class:`~repro.mapreduce.executor.SerialExecutor` runs them one by one,
while a :class:`~repro.mapreduce.executor.ParallelExecutor` (enabled via
``ClusterConfig.parallelism``) interleaves them on threads.  Outcomes are
merged in task-index order, so cubes, metrics and fault chains are
bit-identical across backends.

**Fault tolerance.**  When the cluster carries a
:class:`~repro.mapreduce.faults.FaultPlan`, every task runs as a chain of
attempts governed by the cluster's
:class:`~repro.mapreduce.faults.RetryPolicy`:

* a crashed attempt's output is discarded and the task re-runs from its
  input chunk with a **fresh mapper/reducer instance** (so ``setup``/
  ``close`` state is rebuilt per attempt — map-side partial aggregates
  are flushed exactly once, by the winning attempt);
* a straggling attempt whose slowdown reaches the policy's threshold gets
  a speculative backup copy; the first finisher wins, the loser is killed,
  and only the winner's output is kept;
* failed attempts charge their lost runtime, the framework's crash
  detection delay, and the scheduler's exponential backoff to the task's
  chain, so phase times remain the max over *successful* attempt chains;
* a task that exhausts ``max_attempts`` aborts the job: ``run_job``
  returns normally with empty output and ``JobMetrics.aborted`` set —
  never an exception.

Injected faults may only change the simulated clock and the fault
counters; the data flow (and therefore the cube) is bit-identical to a
fault-free run unless the job aborts.

**Tracing.**  When the cluster carries a
:class:`~repro.observability.Tracer`, ``run_job`` emits structured span
and event records onto the simulated timeline: one attempt span per task
execution, fault events (crash/straggle/speculation), phase spans and a
job span, plus per-(map task, reducer) flow edges and spills at debug
level.  Task chains buffer
their records locally and the driver offsets and emits them in
task-index order, so trace files are bit-identical across execution
backends.  With no tracer attached the engine touches a
single ``enabled`` flag per job — metrics and outputs are identical with
tracing on or off.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .._gc import paused_gc
from ..observability.tracer import (
    LEVEL_DEBUG,
    LEVEL_TASK,
    NULL_TRACER,
)
from ..relation.lattice import ordered
from .cluster import ClusterConfig
from .costmodel import CostModel
from .executor import TaskOutcome, run_task_chain
from .faults import NO_FAULTS, FaultPlan, RetryPolicy
from .metrics import JobMetrics, TaskMetrics
from .sizes import Block, blocks_bytes, column_bytes, estimate_bytes

Pair = Tuple[object, object]
#: One map task's output: every key's values, in emission order.
Runs = Dict[object, List]

_crc32 = zlib.crc32


class PairFormatError(TypeError):
    """User code emitted something that is not a ``(key, value)`` pair.

    Subclasses :class:`TypeError` so callers that caught the old opaque
    unpack error keep working, but the message names the job, phase, task
    and the offending record.
    """


def _canonical(obj):
    """``obj`` with every bool and integral float, tuples recursed into,
    as the int it equals: one form for ``1``, ``True`` and ``1.0``."""
    kind = type(obj)
    if kind is tuple:
        return tuple(map(_canonical, obj))
    if kind is bool or (kind is float and obj.is_integer()):
        return int(obj)
    return obj


def stable_hash(obj) -> int:
    """Deterministic, process-independent hash (Python's ``hash`` is salted).

    Keys that compare equal hash alike, so look-alikes share a reducer: the
    CRC of the :func:`_canonical` form's ``repr``.  A key holding no bool
    and no integral float is its own canonical form, so its hash is the
    engine's historical one, pinned by regression tests so partition
    assignments never shift.
    """
    return _crc32(repr(_canonical(obj)).encode())


def hash_partitioner(key, num_reducers: int) -> int:
    """Hadoop's default routing: stable hash of the key modulo reducers."""
    return stable_hash(key) % num_reducers


class TaskContext:
    """Per-task handle giving user code access to cluster facts."""

    def __init__(
        self, machine: int, num_machines: int, memory_records: int,
        where: str = "task",
    ):
        self.machine = machine
        self.num_machines = num_machines
        self.memory_records = memory_records
        #: "job 'name': map task 3" — how errors name this task.
        self.where = where
        self._extra_cpu = 0

    def add_cpu(self, ops: int) -> None:
        """Charge additional CPU work (e.g. lattice-node visits) to the task."""
        self._extra_cpu += ops

    @property
    def extra_cpu(self) -> int:
        return self._extra_cpu


class Mapper:
    """Base mapper.  Subclasses override :meth:`map` and optionally
    :meth:`setup`/:meth:`close`; ``close`` may emit final pairs (SP-Cube
    flushes its skew partial aggregates there).

    :meth:`map_chunk` is the whole-chunk entry point the engine actually
    calls; the default drives :meth:`map` record by record and folds the
    emitted pairs into runs, so existing mappers are unaffected, while
    hot mappers may override it to build their runs directly (SP-Cube's
    round-2 mapper walks the lattice cuboid-at-a-time there).  An
    override must give every key the value sequence the per-record loop
    would.
    """

    def setup(self, context: TaskContext) -> None:
        self.context = context

    def map(self, record) -> Iterable[Pair]:
        raise NotImplementedError

    def map_chunk(self, chunk) -> Tuple[int, Runs]:
        """Map every record of ``chunk``: ``(records_in, runs)``."""
        runs: Runs = {}
        _fold_pairs(
            runs, chain.from_iterable(map(self.map, chunk)),
            self.context.where,
        )
        return len(chunk), runs

    def close(self) -> Iterable[Pair]:
        return ()


class Reducer:
    """Base reducer.  ``reduce`` is called once per key with all its values,
    in deterministic key order; ``close`` may emit trailing pairs.

    :meth:`reduce_runs` is the whole-task entry point the engine actually
    calls, the reduce-side twin of :meth:`Mapper.map_chunk`; the default
    drives :meth:`reduce` key by key, so existing reducers are
    unaffected, while a hot reducer may override it to work across keys
    (SP-Cube's round-2 reducer aggregates a cuboid at a time there).  An
    override must emit the pairs the per-key loop would, in any order —
    one by one or in a :class:`~repro.mapreduce.sizes.Block` of
    ``((mask, group), value)`` pairs sharing a mask, which the engine
    counts and charges as those pairs and hands on unexpanded — and owns
    the lists it is handed: they are this attempt's copies.
    """

    def setup(self, context: TaskContext) -> None:
        self.context = context

    def reduce(self, key, values: List) -> Iterable[Pair]:
        raise NotImplementedError

    def reduce_runs(self, keys: List, runs: Runs) -> Iterable[Pair]:
        """Reduce the task's grouped ``runs``, given their ordered ``keys``."""
        emitted: List = []
        extend = emitted.extend
        reduce = self.reduce
        for key in keys:
            extend(reduce(key, runs[key]))
        return emitted

    def close(self) -> Iterable[Pair]:
        return ()


class FunctionMapper(Mapper):
    """Adapter turning a plain ``record -> iterable[(k, v)]`` function into
    a :class:`Mapper`."""

    def __init__(self, fn: Callable[[object], Iterable[Pair]]):
        self._fn = fn

    def map(self, record) -> Iterable[Pair]:
        return self._fn(record)


class FunctionReducer(Reducer):
    """Adapter turning a plain ``(key, values) -> iterable[(k, v)]``
    function into a :class:`Reducer`."""

    def __init__(self, fn: Callable[[object, List], Iterable[Pair]]):
        self._fn = fn

    def reduce(self, key, values: List) -> Iterable[Pair]:
        return self._fn(key, values)


class TaskFactory:
    """Task factory: ``TaskFactory(Cls, *args)() == Cls(*args)``, a fresh
    mapper/reducer instance per task attempt."""

    __slots__ = ("_cls", "_args", "_kwargs")

    def __init__(self, cls, *args, **kwargs):
        self._cls = cls
        self._args = args
        self._kwargs = kwargs

    def __call__(self):
        return self._cls(*self._args, **self._kwargs)

    def __repr__(self) -> str:
        return f"TaskFactory({self._cls.__name__}, ...)"


@dataclass
class MapReduceJob:
    """Description of one MapReduce round.

    ``mapper_factory`` / ``reducer_factory`` are called once per task so
    per-machine state is isolated, mirroring separate JVMs on a cluster.
    ``combiner`` has the Hadoop signature ``(key, values) -> pairs`` and
    runs over each map task's buffered output before the shuffle.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    num_reducers: Optional[int] = None
    partitioner: Callable[[object, int], int] = hash_partitioner
    combiner: Optional[Callable[[object, List], Iterable[Pair]]] = None
    #: Classifier mapping one *map emission key* to the cuboid (lattice
    #: mask) it belongs to, used by the debug-level ``flow`` trace events
    #: to break each shuffle edge down per cuboid.  Must be a pure
    #: function of the key.
    #: ``None`` for rounds whose keys carry no cuboid (sampling rounds).
    cuboid_of: Optional[Callable[[object], int]] = None

    @classmethod
    def from_functions(
        cls,
        name: str,
        map_fn: Callable[[object], Iterable[Pair]],
        reduce_fn: Callable[[object, List], Iterable[Pair]],
        **kwargs,
    ) -> "MapReduceJob":
        """Convenience constructor from bare functions."""
        return cls(
            name=name,
            mapper_factory=TaskFactory(FunctionMapper, map_fn),
            reducer_factory=TaskFactory(FunctionReducer, reduce_fn),
            **kwargs,
        )


@dataclass
class JobResult:
    """Reduce output — pairs and/or :class:`Block` items, as the reducers
    emitted them — plus the round's metrics."""

    output: List[Pair]
    metrics: JobMetrics
    reducer_outputs: List[List[Pair]] = field(default_factory=list)
    #: On a reduce-side abort: outputs of the partitions that *did*
    #: complete before the merge hit the dead chain, keyed by partition
    #: index.  The checkpoint layer salvages these so a resume reruns
    #: only the lost partitions.  Empty on success and on map aborts.
    partial_reducer_outputs: Dict[int, List[Pair]] = field(
        default_factory=dict
    )


def _unpack_pair(item, where: str) -> Pair:
    """Unpack an emitted item, raising a named error when it is no pair."""
    try:
        key, value = item
    except (TypeError, ValueError):
        raise PairFormatError(
            f"{where} emitted {item!r}; "
            "mappers, combiners and reducers must yield (key, value) pairs"
        ) from None
    return key, value


def _charged_output(emitted: List, where: str) -> Tuple[List, int, int]:
    """A reduce task's validated output and its ``(records, bytes)``.

    Pairs that are exact 2-tuples — every reducer in this repository —
    pass through as they are (two C-level checks per item); anything
    else is repacked, or named in a :class:`PairFormatError`.  They are
    sized a column at a time.  A :class:`Block` is counted and charged
    as exactly the pairs it stands for, so no total depends on which of
    the two shapes a reducer chose; a task's blocks are sized together.
    """
    blocks: List[Block] = []
    for item in emitted:
        if type(item) is not tuple or len(item) != 2:
            blocks = [item for item in emitted if type(item) is Block]
            emitted = [
                _unpack_pair(item, where)
                for item in emitted if type(item) is not Block
            ]
            break
    records = len(emitted)
    for block in blocks:
        if len(block.groups) != len(block.values):
            raise PairFormatError(
                f"{where} emitted a block of cuboid {block.mask!r} with "
                f"{len(block.groups)} groups but {len(block.values)} values"
            )
        records += len(block.groups)
    size = blocks_bytes(blocks) + sum(
        column_bytes(list(map(itemgetter(side), emitted))) for side in (0, 1)
    )
    return (blocks + emitted if blocks else emitted), records, size


def _fold_pairs(runs: Runs, items: Iterable, where: str) -> None:
    """Append each emitted ``(key, value)`` to its key's run, in order.

    The one place map-side pairs become runs (a mapper's ``map``/``close``
    output, a combiner's output).  When the loop trips, the item in hand
    is re-examined so the error names it: a non-pair or an unhashable key
    is a :class:`PairFormatError`; anything else (a ``TypeError`` raised
    inside the user's generator) propagates untouched.
    """
    get = runs.get
    item = (None, None)
    try:
        for item in items:
            key, value = item
            values = get(key)
            if values is None:
                runs[key] = [value]
            else:
                values.append(value)
    except (TypeError, ValueError):
        key, _value = _unpack_pair(item, where)
        try:
            hash(key)
        except TypeError:
            raise PairFormatError(
                f"{where} emitted unhashable key {key!r}"
            ) from None
        raise


def _route_runs(
    runs: Runs, partitioner: Callable[[object, int], int], num_reducers: int
) -> Tuple[List[Tuple[int, Runs, int, int]], int]:
    """Partition a map task's runs into per-target shards.

    Returns ``([(target, runs, shard_bytes, shard_records)], total_bytes)``
    with one shard per distinct target, in first-seen target order, each
    shard's runs in first-seen key order.  The partitioner is called and
    the key sized once per *run* (partitioners must be pure functions of
    the key, as in Hadoop): a key's bytes are charged once per value it
    carries, exactly what a per-pair loop would charge.  The shards are
    what a map task hands back, whether tasks ran serially or interleaved
    on threads.
    """
    shards: Dict[int, List] = {}  # target -> [target, runs, bytes, records]
    shard_of = shards.get
    # Values are sized once per *object*: a mapper that emits one record
    # under several keys (SP-Cube's ancestor covering does this 3-5x per
    # record) pays the estimator once.  id() keys are safe here because
    # every value is kept alive by ``runs``, and identical objects
    # trivially have identical sizes.  ``value_bytes`` is the running
    # total over the values in run order, so a run's share is one
    # subtraction.
    emitted = list(chain.from_iterable(runs.values()))
    distinct = dict(zip(map(id, emitted), emitted))
    sizes = dict(zip(distinct, map(estimate_bytes, distinct.values())))
    value_bytes = list(
        accumulate(map(sizes.__getitem__, map(id, emitted)), initial=0)
    )
    end = 0
    for key, values in runs.items():
        target = partitioner(key, num_reducers)
        if not 0 <= target < num_reducers:
            raise ValueError(
                f"partitioner routed key {key!r} to reducer "
                f"{target} of {num_reducers}"
            )
        shard = shard_of(target)
        if shard is None:
            shard = shards[target] = [target, {}, 0, 0]
        start, end = end, end + len(values)
        shard[1][key] = values
        shard[2] += (
            estimate_bytes(key) * (end - start)
            + value_bytes[end] - value_bytes[start]
        )
        shard[3] += end - start
    routed = [tuple(shard) for shard in shards.values()]
    return routed, sum(shard[2] for shard in routed)


@dataclass
class _Round:
    """The facts every task of one round shares."""

    job: MapReduceJob
    num_reducers: int
    num_machines: int
    memory_records: int
    physical_memory: int
    cost: CostModel
    faults: FaultPlan
    retry: RetryPolicy
    trace: bool = False


class _Task:
    """One self-contained task: its input in, its output out.

    A map task's input is its chunk, and its output the routed runs; a
    reduce task's input is its bucket, the runs the map tasks routed
    here in map-task order, and its output the reduce output.  The input
    is shared by every attempt of the chain, so a reduce attempt groups
    copies and never hands a reducer one of its lists.  The task holds
    the only reference to it, and drops it when the chain ends.  The
    rest comes from the round, so the task gives the same result on
    whichever thread, and in whatever order, it runs.
    """

    def __init__(
        self, shared: _Round, phase: str, machine: int, data: Sequence,
        records_in: int = 0, bytes_in: int = 0,
        node_kill_at: Optional[float] = None,
    ):
        self.shared = shared
        self.phase = phase
        self.machine = machine
        self.data = data
        self.records_in = records_in
        self.bytes_in = bytes_in
        self.node_kill_at = node_kill_at

    def __call__(self) -> TaskOutcome:
        shared = self.shared
        outcome = run_task_chain(
            self._map_attempt if self.phase == "map" else self._reduce_attempt,
            job_name=shared.job.name, phase=self.phase, machine=self.machine,
            faults=shared.faults, retry=shared.retry, cost=shared.cost,
            trace=shared.trace, node_kill_at=self.node_kill_at,
        )
        self.data = None  # the chain has ended: free its input
        return outcome

    def _map_attempt(self) -> Tuple[TaskMetrics, List]:
        """One full execution, buffered locally so a crashed attempt
        contributes nothing to the shuffle."""
        shared = self.shared
        job = shared.job
        machine = self.machine
        task = TaskMetrics(machine=machine)
        context = TaskContext(
            machine, shared.num_machines, shared.memory_records,
            where=f"job {job.name!r}: map task {machine}",
        )
        mapper = job.mapper_factory()
        mapper.setup(context)

        task.records_in, runs = mapper.map_chunk(self.data)
        _fold_pairs(runs, mapper.close(), context.where)

        if job.combiner is not None:
            runs = _apply_combiner(
                job.combiner, runs, context,
                f"job {job.name!r}: combiner task {machine}",
            )

        routed, task.bytes_out = _route_runs(
            runs, job.partitioner, shared.num_reducers
        )
        task.records_out = sum(shard[3] for shard in routed)

        task.cpu_ops = task.records_in + task.records_out + context.extra_cpu
        task.seconds = shared.cost.map_task_seconds(
            task.cpu_ops, task.bytes_out
        )
        return task, routed

    def _reduce_attempt(self) -> Tuple[TaskMetrics, List]:
        shared = self.shared
        job = shared.job
        machine = self.machine
        task = TaskMetrics(machine=machine)
        where = f"job {job.name!r}: reduce task {machine}"
        context = TaskContext(
            machine, shared.num_machines, shared.memory_records, where=where
        )
        reducer = job.reducer_factory()
        reducer.setup(context)

        # One dict probe per run.  A key's first run is copied and later
        # runs extend the copy, so no list is shared with the bucket: a
        # re-run attempt groups the same runs again, whatever the reducer
        # did to its values.
        grouped: Runs = {}
        grouped_get = grouped.get
        for runs in self.data:
            for key, values in runs.items():
                seen = grouped_get(key)
                if seen is None:
                    grouped[key] = values.copy()
                else:
                    seen.extend(values)
        task.records_in = self.records_in
        task.bytes_in = self.bytes_in

        task.peak_group_records = max(map(len, grouped.values()), default=0)
        task.spilled_records = max(0, task.records_in - shared.physical_memory)
        emitted = list(reducer.reduce_runs(ordered(grouped), grouped))
        emitted.extend(reducer.close())
        reducer_output, task.records_out, task.bytes_out = _charged_output(
            emitted, where
        )

        task.cpu_ops = (
            task.records_in + task.records_out + context.extra_cpu
        )
        task.seconds = shared.cost.reduce_task_seconds(
            task.cpu_ops, task.spilled_records, task.bytes_out
        )
        return task, reducer_output


def _merge_outcome(metrics: JobMetrics, outcome: TaskOutcome) -> None:
    """Fold one task chain's fault counters into the job metrics."""
    metrics.attempts += outcome.attempts
    metrics.killed_tasks += outcome.killed_tasks
    metrics.speculative_wins += outcome.speculative_wins
    metrics.recovered += outcome.recovered
    metrics.killed_attempts.extend(outcome.killed_attempts)


def run_job(*args, **kwargs) -> JobResult:
    """Execute one MapReduce round; see :func:`_run_job` for parameters.

    Runs with cyclic GC paused (:func:`paused_gc`) — purely a wall-clock
    optimization, restored at round end.
    """
    with paused_gc():
        return _run_job(*args, **kwargs)


def _run_job(
    job: MapReduceJob,
    input_chunks: Sequence[Sequence],
    cluster: ClusterConfig,
    memory_records: int,
    *,
    run_clock: float = 0.0,
    replaced_nodes: frozenset = frozenset(),
    completed_reducers: Optional[Dict[int, List[Pair]]] = None,
) -> JobResult:
    """Execute one MapReduce round over pre-split input.

    Parameters
    ----------
    job:
        The round description.
    input_chunks:
        One record sequence per map task (``len(input_chunks)`` map tasks).
    cluster:
        Cluster shape, cost model, fault plan / retry policy, and
        parallelism (which executor runs the phase's tasks).
    memory_records:
        ``m``, the per-machine memory in records for this run.
    run_clock:
        Run-relative simulated seconds at which this round starts — how
        run-relative :class:`~repro.mapreduce.faults.NodeFaultSpec` kills
        find the round whose window contains them.  Multi-round engines
        thread this through :class:`~repro.mapreduce.checkpoint.RoundRunner`.
    replaced_nodes:
        Nodes already lost and re-provisioned earlier in the run; their
        pinned/seeded kills are spent (see
        :meth:`FaultPlan.node_kills_for_job`).
    completed_reducers:
        Partition outputs salvaged from a checkpoint or a partially
        completed execution, keyed by partition index.  Those reduce
        tasks are skipped and their outputs merged in place — partial
        re-execution after a node loss.

    Outcomes are merged in task-index order and the merge stops at the
    first exhausted chain, so every backend — serial or parallel —
    produces identical output, metrics and abort behaviour.
    """
    cost = cluster.cost_model
    faults = cluster.fault_plan or NO_FAULTS
    retry = cluster.retry_policy or RetryPolicy()
    num_reducers = job.num_reducers or cluster.num_machines
    metrics = JobMetrics(name=job.name)
    executor = cluster.task_executor()
    metrics.executor = executor.name

    tracer = cluster.tracer or NULL_TRACER
    trace_on = tracer.enabled
    trace_tasks = trace_on and tracer.level >= LEVEL_TASK
    trace_debug = trace_on and tracer.level >= LEVEL_DEBUG
    shared = _Round(
        job, num_reducers, cluster.num_machines, memory_records,
        cluster.physical_memory(memory_records), cost, faults, retry,
        trace_tasks,
    )
    job_base = tracer.clock
    #: Shape counters the job span carries for the trace's derivations.
    job_shape = {
        "num_reducers": num_reducers,
        "map_tasks": len(input_chunks),
        "memory_records": memory_records,
    }
    cuboid_cache: Dict[object, Optional[int]] = {}

    # Node kills landing in this round's window, as job-relative times.
    # A pure function of (plan, job name, run clock), so serial and
    # parallel backends — and reruns after a resume — see identical kills.
    topology = cluster.topology()
    node_kills: Dict[int, float] = {}
    if faults.has_node_faults:
        node_kills = faults.node_kills_for_job(
            job.name, run_clock, topology.num_nodes, replaced_nodes
        )

    def _kill_at(machine: int, phase_base: float) -> Optional[float]:
        """Phase-relative kill instant for the node hosting ``machine``."""
        if not node_kills:
            return None
        t = node_kills.get(topology.node_of(machine % cluster.num_machines))
        return None if t is None else t - phase_base

    def run_phase(phase: str, tasks: List[_Task], base: float, fold) -> None:
        """Run one phase's tasks and fold their chains in task-index
        order: ``fold(machine, task, payload, start)`` takes each
        winner's output; the first exhausted chain aborts the job."""
        started = time.perf_counter()
        outcomes = executor.run_tasks(
            tasks, stop_early=attrgetter("exhausted")
        )
        wall = time.perf_counter() - started
        start = base + cost.round_startup_seconds
        done = metrics.map_tasks if phase == "map" else metrics.reduce_tasks
        dead_chain_seconds = 0.0
        for task, outcome in zip(tasks, outcomes):
            _merge_outcome(metrics, outcome)
            if trace_tasks:
                _emit_chain_trace(tracer, outcome, start)
            if outcome.exhausted:
                metrics.aborted = True
                metrics.abort_reason = (
                    f"{phase} task {task.machine} exhausted "
                    f"{retry.max_attempts} attempts"
                )
                dead_chain_seconds = outcome.chain_seconds
                if trace_on:
                    tracer.event(
                        "abort", at=start + outcome.chain_seconds,
                        job=job.name, phase=phase, task=task.machine,
                        fields={"reason": metrics.abort_reason},
                    )
                break
            fold(task.machine, outcome.task, outcome.payload, start)
            done.append(outcome.task)
        setattr(metrics, f"{phase}_phase_wall_seconds", wall)
        setattr(
            metrics, f"{phase}_phase_seconds",
            cost.round_startup_seconds + max(
                max((t.seconds for t in done), default=0.0),
                dead_chain_seconds,
            ),
        )

    # ---- map phase --------------------------------------------------------
    reducer_buckets: List[List[Runs]] = [[] for _ in range(num_reducers)]
    reducer_bytes = [0] * num_reducers
    reducer_records = [0] * num_reducers

    def fold_map(machine, task, payload, start):
        for target, runs, shard_bytes, shard_records in payload:
            reducer_buckets[target].append(runs)
            reducer_bytes[target] += shard_bytes
            reducer_records[target] += shard_records
        if trace_debug:
            _emit_flow_events(
                tracer, job, machine, payload, cuboid_cache,
                start + task.seconds,
            )
        metrics.map_output_bytes += task.bytes_out
        metrics.map_output_records += task.records_out

    run_phase("map", [
        _Task(
            shared, "map", machine, chunk,
            node_kill_at=_kill_at(machine, cost.round_startup_seconds),
        )
        for machine, chunk in enumerate(input_chunks)
    ], job_base, fold_map)
    if trace_on:
        _emit_phase_span(tracer, job.name, "map", job_base, metrics)

    merged_outputs: Dict[int, List[Pair]] = {}
    reduced = not metrics.aborted
    if reduced:
        # ---- shuffle ------------------------------------------------------
        metrics.shuffle_seconds = cost.shuffle_seconds(
            max(reducer_bytes, default=0)
        )
        if trace_on:
            tracer.event(
                "shuffle", at=job_base + metrics.map_phase_seconds,
                job=job.name,
                fields={
                    "seconds": metrics.shuffle_seconds,
                    "max_reducer_bytes": max(reducer_bytes, default=0),
                },
            )

        # ---- reduce phase -------------------------------------------------
        # Partitions already salvaged from a checkpoint are not
        # re-executed; their outputs are merged back in partition order.
        merged_outputs.update(completed_reducers or {})
        reduce_rel = metrics.map_phase_seconds + metrics.shuffle_seconds
        reduce_tasks = [
            _Task(
                shared, "reduce", machine, reducer_buckets[machine],
                reducer_records[machine], reducer_bytes[machine],
                node_kill_at=_kill_at(
                    machine, reduce_rel + cost.round_startup_seconds
                ),
            )
            for machine in range(num_reducers)
            if machine not in merged_outputs
        ]
        # The tasks now hold the only references to the routed runs.
        reducer_buckets = None

        def fold_reduce(machine, task, payload, start):
            if trace_debug and task.spilled_records:
                tracer.event(
                    "spill", at=start + task.seconds,
                    job=job.name, phase="reduce", task=machine,
                    fields={"records": task.spilled_records},
                )
            merged_outputs[machine] = payload

        reduce_base = (
            job_base + metrics.map_phase_seconds + metrics.shuffle_seconds
        )
        run_phase("reduce", reduce_tasks, reduce_base, fold_reduce)
        metrics.total_seconds = (
            metrics.map_phase_seconds
            + metrics.shuffle_seconds
            + metrics.reduce_phase_seconds
        )
    else:
        metrics.total_seconds = metrics.map_phase_seconds
    _record_node_losses(
        tracer, trace_on, metrics, node_kills, topology, job_base, job.name,
    )
    if trace_on:
        if reduced:
            _emit_phase_span(tracer, job.name, "reduce", reduce_base, metrics)
        _finish_job_trace(tracer, job.name, metrics, job_base, job_shape)
    if metrics.aborted:
        # Partitions merged before the dead chain (plus checkpointed
        # skips) are salvageable by the round runner.
        return JobResult(
            output=[], metrics=metrics, reducer_outputs=[],
            partial_reducer_outputs=merged_outputs,
        )
    outputs = [merged_outputs[m] for m in range(num_reducers)]
    return JobResult(
        output=list(chain.from_iterable(outputs)),
        metrics=metrics,
        reducer_outputs=outputs,
    )


def cuboid_of_mask_key(key):
    """Cuboid (lattice mask) of a ``(mask, values[, shard])`` shuffle key.

    The emission-key shape shared by the naive, Hive and MR-Cube engines
    (their jobs' :attr:`MapReduceJob.cuboid_of`).
    """
    return key[0]


def _emit_flow_events(
    tracer, job: MapReduceJob, machine: int, payload, cuboid_cache: Dict,
    at: float,
) -> None:
    """Debug-level shuffle edges of one map task: a ``flow`` event per
    ``(map task, reducer)`` pair, in the shard order :func:`_route_runs`
    produced (first-seen target order) — the order the merge loop
    consumes, so traces stay bit-identical across execution backends.
    The per-cuboid breakdown classifies each run's key once through
    ``job.cuboid_of`` and a per-job equality-keyed cache (the same keys
    recur in every map task).
    """
    cuboid_of = job.cuboid_of
    cache_get = cuboid_cache.get
    for target, runs, shard_bytes, shard_records in payload:
        cuboids: Dict[str, int] = {}
        if cuboid_of is not None:
            for key, values in runs.items():
                mask = cache_get(key)
                if mask is None:
                    mask = cuboid_cache[key] = str(cuboid_of(key))
                cuboids[mask] = cuboids.get(mask, 0) + len(values)
        tracer.event(
            "flow", at=at, job=job.name, phase="map", task=machine,
            fields={
                "reducer": target,
                "records": shard_records,
                "bytes": shard_bytes,
                "cuboids": cuboids,
            },
        )


def _record_node_losses(
    tracer,
    trace_on: bool,
    metrics: JobMetrics,
    node_kills: Dict[int, float],
    topology,
    job_base: float,
    job_name: str,
) -> None:
    """Fold the kills that actually fired into the round's metrics.

    A kill fires when its instant lands strictly inside the round's
    window ``[0, total_seconds)``; a later instant belongs to a later
    round (the run clock will eventually contain it).  Fired nodes land
    in ``metrics.dead_nodes`` — the signal the checkpoint layer keys its
    resume decision on — and each emits one ``node_lost`` trace event.
    """
    if not node_kills:
        return
    fired = sorted(
        node
        for node, at in node_kills.items()
        if at < metrics.total_seconds
    )
    metrics.dead_nodes = fired
    if trace_on:
        for node in fired:
            tracer.event(
                "node_lost", at=job_base + node_kills[node], job=job_name,
                fields={
                    "node": node,
                    "machines": list(topology.machines_on(node)),
                },
            )


def _emit_chain_trace(tracer, outcome: TaskOutcome, phase_start: float) -> None:
    """Shift a chain's buffered records onto the timeline and emit them.

    Chains buffer records with chain-relative times (they may have run
    interleaved on threads); the driver calls this in task-index order,
    so the trace stream is bit-identical across execution backends.
    """
    for record in outcome.trace or ():
        if record["type"] == "span":
            record["t0"] += phase_start
            record["t1"] += phase_start
        else:
            record["at"] += phase_start
        tracer.emit(record)


def _emit_phase_span(
    tracer, job_name: str, phase: str, base: float, metrics: JobMetrics
) -> None:
    tasks = metrics.map_tasks if phase == "map" else metrics.reduce_tasks
    seconds = (
        metrics.map_phase_seconds
        if phase == "map"
        else metrics.reduce_phase_seconds
    )
    tracer.span(
        "phase", name=phase, job=job_name, phase=phase,
        t0=base, t1=base + seconds,
        status="aborted" if metrics.aborted else "ok",
        counters={
            "tasks": len(tasks),
            "records_out": sum(t.records_out for t in tasks),
            "bytes_out": sum(t.bytes_out for t in tasks),
            "seconds": seconds,
        },
    )


def _finish_job_trace(
    tracer, job_name: str, metrics: JobMetrics, job_base: float,
    job_shape: Dict[str, int],
) -> None:
    """Emit the round's job span and advance the simulated clock."""
    if metrics.aborted:
        status = "aborted"
    elif metrics.failed:
        status = "failed"
    else:
        status = "ok"
    tracer.span(
        "job", name=job_name, job=job_name,
        t0=job_base, t1=job_base + metrics.total_seconds, status=status,
        counters={
            "map_output_records": metrics.map_output_records,
            "map_output_bytes": metrics.map_output_bytes,
            "attempts": metrics.attempts,
            "killed_tasks": metrics.killed_tasks,
            "speculative_wins": metrics.speculative_wins,
            "recovered": metrics.recovered,
            **job_shape,
        },
    )
    tracer.advance(metrics.total_seconds)


def _apply_combiner(
    combiner: Callable[[object, List], Iterable[Pair]],
    runs: Runs,
    context: TaskContext,
    where: str,
) -> Runs:
    """Fold each of a map task's runs through the combiner, in key order."""
    context.add_cpu(sum(map(len, runs.values())))
    combined: Runs = {}
    for key in ordered(runs):
        _fold_pairs(combined, combiner(key, runs[key]), where)
    return combined
