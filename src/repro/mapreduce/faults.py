"""Fault injection and fault tolerance for the simulated MapReduce engine.

The paper's central experimental claim (Section 6, Figures 6a/7a) is about
*survival*: SP-Cube keeps running where Hive's reducers get stuck.  A real
MapReduce runtime survives individual task failures through three
mechanisms — task re-execution, speculative backup tasks for stragglers,
and DFS replication — and the simulator models all three so it can
distinguish "a task died and the framework recovered" from "the job is
stuck".

Two pieces:

* :class:`FaultPlan` — a seeded, deterministic description of *what goes
  wrong*: crash a map/reduce task on attempt ``i``, slow a task down by a
  straggle factor, or kill a whole node (its in-flight attempts and its
  DFS replicas).  Faults can be pinned explicitly (:class:`FaultSpec`,
  :class:`NodeFaultSpec`, for tests) or drawn from seeded coin flips, so
  two runs with the same plan inject byte-identical faults regardless
  of execution order.
* :class:`RetryPolicy` — *how the framework responds*: how many attempts
  a task gets, the exponential backoff between attempts (charged to
  simulated time), and when a straggling attempt earns a speculative
  backup copy.

The engine (:func:`repro.mapreduce.engine.run_job`) consumes both via
:class:`~repro.mapreduce.cluster.ClusterConfig`.  The headline invariant,
enforced by the test suite: any run whose fault plan does not exhaust the
retry budget produces the bit-identical cube output of the fault-free run
— faults may only change the simulated clock, never the data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Task fault kinds understood by the engine.
CRASH = "crash"
STRAGGLE = "straggle"
#: Node-level failure domain: every in-flight attempt on the node dies
#: and the node's DFS replicas are lost (see :class:`NodeFaultSpec`).
NODE_KILL = "node-kill"

_KINDS = (CRASH, STRAGGLE)


@dataclass(frozen=True)
class FaultSpec:
    """One explicitly pinned fault.

    ``None`` in a targeting field is a wildcard.  ``attempt`` defaults to
    0 (fault the first execution, let the retry succeed); ``attempt=None``
    faults *every* attempt — the standard way to exhaust a retry budget
    in tests.
    """

    kind: str
    job: Optional[str] = None
    phase: Optional[str] = None  # "map" | "reduce"
    task: Optional[int] = None
    attempt: Optional[int] = 0
    #: Straggle factor (>= 1) applied to the attempt's nominal runtime.
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")

    def matches_task(
        self, job: str, phase: str, task: int, attempt: int
    ) -> bool:
        return (
            (self.job is None or self.job == job)
            and (self.phase is None or self.phase == phase)
            and (self.task is None or self.task == task)
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass(frozen=True)
class NodeFaultSpec:
    """One pinned node death — a whole failure domain going down.

    ``node`` names the topology node that dies.  Two targeting modes:

    * ``job=None`` (the default): ``at_seconds`` is *run-relative*
      simulated time — the node dies in whichever round's execution
      window contains that instant.  A completed or resumed round
      replaces the node (real clusters re-provision between rounds), so
      a kill never fires twice.
    * ``job="name"``: the kill targets that round specifically and
      ``at_seconds`` is relative to the round's start — the natural way
      to script "kill node 2 during round 2" in a test.

    Every attempt in flight on the node at the kill instant dies
    atomically, later attempts cannot be placed there, and the node's
    DFS replicas are marked dead (see
    :meth:`~repro.mapreduce.dfs.DistributedFileSystem.mark_nodes_dead`).
    """

    node: int
    at_seconds: float = 0.0
    job: Optional[str] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")


class FaultPlan:
    """A deterministic schedule of injected faults.

    Explicit :class:`FaultSpec` entries fire exactly where they are
    pinned.  On top of those, seeded probabilities (``crash_prob``,
    ``straggle_prob``) draw independent coin flips per ``(job, phase,
    task, attempt)`` from a CRC32 of the identifying tuple — pure
    functions of the seed and the identity, never of execution order,
    so a plan injects the same faults no matter which engine runs under
    it or how tasks interleave.

    Node-level failure domains ride the same machinery:
    :class:`NodeFaultSpec` entries pin node deaths explicitly, and
    ``node_crash_prob`` draws one seeded coin per ``(node, job)`` pair —
    a node that loses its coin dies at that round's start.  The engine
    queries :meth:`node_kills_for_job` once per round.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        *,
        seed: int = 0,
        crash_prob: float = 0.0,
        straggle_prob: float = 0.0,
        straggle_slowdown: float = 4.0,
        node_specs: Sequence[NodeFaultSpec] = (),
        node_crash_prob: float = 0.0,
    ):
        for name, prob in (
            ("crash_prob", crash_prob),
            ("straggle_prob", straggle_prob),
            ("node_crash_prob", node_crash_prob),
        ):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if straggle_slowdown < 1.0:
            raise ValueError("straggle_slowdown must be >= 1")
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.crash_prob = crash_prob
        self.straggle_prob = straggle_prob
        self.straggle_slowdown = straggle_slowdown
        self.node_specs: Tuple[NodeFaultSpec, ...] = tuple(node_specs)
        self.node_crash_prob = node_crash_prob

    @property
    def has_node_faults(self) -> bool:
        """True when this plan may kill whole nodes."""
        return bool(self.node_specs) or bool(self.node_crash_prob)

    # -- deterministic coin flips -------------------------------------------

    def _roll(self, *identity) -> float:
        """Uniform [0, 1) draw, a pure function of seed + identity."""
        data = repr((self.seed,) + identity).encode()
        return zlib.crc32(data) / 0x1_0000_0000

    # -- queries asked by the engine ----------------------------------------

    def crashes(self, job: str, phase: str, task: int, attempt: int) -> bool:
        """Does attempt ``attempt`` of this task die?"""
        for spec in self.specs:
            if spec.kind == CRASH and spec.matches_task(
                job, phase, task, attempt
            ):
                return True
        if self.crash_prob:
            return (
                self._roll(CRASH, job, phase, task, attempt)
                < self.crash_prob
            )
        return False

    def slowdown_factor(
        self, job: str, phase: str, task: int, attempt: int
    ) -> float:
        """Straggle factor for this attempt; 1.0 means healthy."""
        factor = 1.0
        for spec in self.specs:
            if spec.kind == STRAGGLE and spec.matches_task(
                job, phase, task, attempt
            ):
                factor = max(factor, spec.slowdown)
        if self.straggle_prob and (
            self._roll(STRAGGLE, job, phase, task, attempt)
            < self.straggle_prob
        ):
            factor = max(factor, self.straggle_slowdown)
        return factor

    # -- queries asked by the round runner ----------------------------------

    def node_kills_for_job(
        self,
        job: str,
        job_base: float,
        num_nodes: int,
        replaced: frozenset = frozenset(),
    ):
        """Node kills that fire during ``job``, as ``{node: kill_seconds}``.

        ``job_base`` is the run-relative simulated time at which the job
        starts; returned kill times are *job-relative* (seconds after the
        job's start).  ``replaced`` lists nodes already re-provisioned by
        the round runner after an earlier death — their pinned kills are
        spent and probabilistic coins are skipped, so a rerun of the same
        round does not die to the same node twice.

        Pure function of the plan and its arguments: serial and parallel
        executors, and reruns after a resume, see identical kills.
        """
        kills: dict = {}
        for spec in self.node_specs:
            if spec.node in replaced or not 0 <= spec.node < num_nodes:
                continue
            if spec.job is not None:
                if spec.job != job:
                    continue
                t = max(spec.at_seconds, 0.0)
            else:
                # Run-relative: fires in whichever job's window contains
                # it.  Once the run clock passes at_seconds the kill is
                # spent — t goes negative for every later job.
                t = spec.at_seconds - job_base
                if t < 0:
                    continue
            kills[spec.node] = min(kills.get(spec.node, t), t)
        if self.node_crash_prob:
            for node in range(num_nodes):
                if node in replaced or node in kills:
                    continue
                if self._roll(NODE_KILL, node, job) < self.node_crash_prob:
                    kills[node] = 0.0
        return kills

    def __repr__(self) -> str:
        return (
            f"FaultPlan(specs={len(self.specs)}, seed={self.seed}, "
            f"crash={self.crash_prob}, straggle={self.straggle_prob}, "
            f"node_specs={len(self.node_specs)}, "
            f"node_crash={self.node_crash_prob})"
        )


#: The default plan: a perfectly healthy cluster.
NO_FAULTS = FaultPlan()


@dataclass(frozen=True)
class RetryPolicy:
    """How the framework reacts to task failure — Hadoop's knobs.

    ``max_attempts`` mirrors ``mapreduce.map/reduce.maxattempts`` (default
    4); a task that fails that many times aborts the whole job, which the
    engine reports as ``JobMetrics.aborted`` (never an exception).
    Between attempts the scheduler waits an exponential backoff, charged
    to the failed task's chain of simulated time.  A running attempt whose
    straggle factor reaches ``speculation_threshold`` earns a speculative
    backup copy (Hadoop's speculative execution): the copy starts after
    the framework's detection delay, the first finisher wins, the loser is
    killed, and the winner's output alone is kept — so duplicated
    execution never duplicates data.
    """

    max_attempts: int = 4
    backoff_base_seconds: float = 2.0
    backoff_factor: float = 2.0
    speculation_enabled: bool = True
    #: Straggle factor at which a backup copy is launched.
    speculation_threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.speculation_threshold <= 1.0:
            raise ValueError("speculation_threshold must be > 1")

    def backoff_seconds(self, failures: int) -> float:
        """Scheduler wait after the ``failures``-th consecutive failure."""
        if failures < 1:
            raise ValueError("failures must be >= 1")
        return self.backoff_base_seconds * self.backoff_factor ** (
            failures - 1
        )
