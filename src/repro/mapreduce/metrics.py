"""Metrics collected by the simulator — the paper's measurement surface.

Section 6 reports, per experiment: total running time, *average* map and
reduce task times, and intermediate (map output / network) data size.  A
:class:`JobMetrics` captures one MapReduce round; a :class:`RunMetrics`
aggregates the rounds of one algorithm execution plus algorithm-specific
extras (e.g. the SP-Sketch serialized size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class MetricsInvariantError(AssertionError):
    """A metrics object violates the engine's accounting contract."""


@dataclass
class TaskMetrics:
    """Counters for a single map or reduce task (one machine, one phase)."""

    machine: int = 0
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cpu_ops: int = 0
    spilled_records: int = 0
    peak_group_records: int = 0
    seconds: float = 0.0
    #: Attempt index this record describes (0 = first execution).  For a
    #: task's winning attempt, ``seconds`` covers the whole chain: every
    #: crashed attempt, detection and backoff, then the winner's runtime.
    attempt: int = 0
    #: True when this attempt was killed (crash injection, or the losing
    #: copy of a speculative pair).
    killed: bool = False
    #: True when the task was completed by a speculative backup copy.
    speculative: bool = False
    #: Simulated seconds this chain spent *beyond* the winning attempt's
    #: nominal fault-free runtime: lost attempts, crash detection,
    #: scheduler backoff, and residual straggle after speculation.  Only
    #: the winning attempt carries it (killed attempts keep 0.0), so
    #: summing over ``map_tasks``/``reduce_tasks`` counts every chain's
    #: recovery cost exactly once.
    overhead_seconds: float = 0.0


@dataclass
class JobMetrics:
    """Counters and derived times for one MapReduce round.

    The round :attr:`failed` when it aborted (a task exhausted its retry
    budget, or a node loss) or an algorithm's own failure model set
    :attr:`forced_failure`.
    """

    name: str
    map_tasks: List[TaskMetrics] = field(default_factory=list)
    reduce_tasks: List[TaskMetrics] = field(default_factory=list)
    #: Serialized bytes of all map-output pairs after combining — the
    #: paper's "map output size" / "intermediate data size".
    map_output_bytes: int = 0
    map_output_records: int = 0
    #: Simulated phase durations (max over machines + round startup).
    map_phase_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    reduce_phase_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Set by an algorithm's own failure model when the job is stuck —
    #: HiveCube's out-of-memory reducers at p >= 0.4 (Figure 6a).
    forced_failure: bool = False
    #: Fault-tolerance counters (see ``repro.mapreduce.faults``): total
    #: task attempts launched (first executions, retries, and speculative
    #: backups), attempts killed (crashes plus losing speculative copies),
    #: tasks won by a speculative backup, and tasks that succeeded only
    #: after at least one failure or via a backup copy.
    attempts: int = 0
    killed_tasks: int = 0
    speculative_wins: int = 0
    recovered: int = 0
    #: Per-attempt records of every killed attempt (the winning attempt of
    #: each task lives in ``map_tasks``/``reduce_tasks``).
    killed_attempts: List[TaskMetrics] = field(default_factory=list)
    #: True when some task exhausted its retry budget and the framework
    #: aborted the job — the run produced no output.
    aborted: bool = False
    abort_reason: Optional[str] = None
    #: Which execution backend ran the round's tasks — "serial", or
    #: "parallel" (interleaved on threads) — and the *real* wall-clock
    #: seconds the driver spent per phase: measured host time, not
    #: simulated time.  These are diagnostics for the perf harness and
    #: are excluded from determinism comparisons (everything else in this
    #: dataclass is bit-identical across backends).
    executor: str = "serial"
    map_phase_wall_seconds: float = 0.0
    reduce_phase_wall_seconds: float = 0.0
    #: Topology nodes that died during this round's window (sorted).  A
    #: non-empty list on an aborted round is the checkpoint layer's
    #: signal that the abort is *resumable* — caused by a failure domain
    #: going down, not by a task exhausting its own retry budget.
    dead_nodes: List[int] = field(default_factory=list)
    #: True when this round's execution failed to a node loss and was
    #: re-executed from a checkpoint: the record is kept for accounting
    #: (its time is pure recovery cost) but superseded by a later
    #: execution of the same round — run-level failure/abort status and
    #: per-round aggregates skip it.
    superseded: bool = False

    @property
    def avg_map_seconds(self) -> float:
        """Average map task time — Figure 5b / 8b's measure."""
        if not self.map_tasks:
            return 0.0
        return sum(t.seconds for t in self.map_tasks) / len(self.map_tasks)

    @property
    def avg_reduce_seconds(self) -> float:
        """Average reduce task time — Figure 4b / 7b's measure."""
        if not self.reduce_tasks:
            return 0.0
        return sum(t.seconds for t in self.reduce_tasks) / len(
            self.reduce_tasks
        )

    @property
    def max_reducer_input_records(self) -> int:
        return max((t.records_in for t in self.reduce_tasks), default=0)

    @property
    def reducer_input_records(self) -> List[int]:
        return [t.records_in for t in self.reduce_tasks]

    @property
    def failed(self) -> bool:
        return self.aborted or self.forced_failure

    @property
    def recovery_overhead_seconds(self) -> float:
        """Simulated seconds this round spent on fault recovery.

        Summed over winning attempts only — killed attempts' lost time is
        charged to their chain's winner (see
        ``TaskMetrics.overhead_seconds``), so nothing is double-counted.
        An aborted round's dead chain has no winner; its cost shows in
        the phase time but not here.  A *superseded* execution (failed to
        a node loss, re-executed from a checkpoint) is recovery cost in
        its entirety: every simulated second it spent had to be spent
        again.
        """
        if self.superseded:
            return self.total_seconds
        return sum(
            t.overhead_seconds for t in self.map_tasks
        ) + sum(t.overhead_seconds for t in self.reduce_tasks)

    def check_invariants(self) -> None:
        """Enforce the engine's accounting contract; raise on violation.

        The headline invariant: wall-clock and byte totals include every
        killed attempt **exactly once** — via its chain winner's
        ``seconds``/``overhead_seconds``, never via the task lists that
        the byte totals and per-task averages are computed from.
        """
        problems: List[str] = []
        winners = self.map_tasks + self.reduce_tasks
        if any(t.killed for t in winners):
            problems.append("a killed attempt leaked into the task lists")
        if not all(t.killed for t in self.killed_attempts):
            problems.append("killed_attempts holds a non-killed record")
        if any(t.overhead_seconds for t in self.killed_attempts):
            problems.append(
                "a killed attempt carries overhead_seconds (its cost "
                "belongs to the chain winner)"
            )
        # Every attempt either won (one entry in the task lists) or was
        # killed; speculative losing copies count in killed_tasks only.
        if self.attempts != len(winners) + self.killed_tasks:
            problems.append(
                f"attempts={self.attempts} != "
                f"{len(winners)} winners + {self.killed_tasks} killed"
            )
        if self.killed_tasks < len(self.killed_attempts):
            problems.append(
                "killed_tasks is below the recorded killed attempts"
            )
        if self.speculative_wins != sum(1 for t in winners if t.speculative):
            problems.append("speculative_wins disagrees with task flags")
        if self.map_output_bytes != sum(t.bytes_out for t in self.map_tasks):
            problems.append(
                "map_output_bytes does not equal the winning map "
                "attempts' bytes (killed attempts must not contribute)"
            )
        if self.map_output_records != sum(
            t.records_out for t in self.map_tasks
        ):
            problems.append(
                "map_output_records does not equal the winning map "
                "attempts' records"
            )
        if self.superseded and not self.aborted:
            problems.append(
                "superseded implies aborted: only a failed execution "
                "can be replaced by a rerun"
            )
        if not self.aborted and self.total_seconds and abs(
            self.total_seconds
            - (
                self.map_phase_seconds
                + self.shuffle_seconds
                + self.reduce_phase_seconds
            )
        ) > 1e-9:
            problems.append("total_seconds is not the sum of its phases")
        if problems:
            raise MetricsInvariantError(
                f"job {self.name!r}: " + "; ".join(problems)
            )


@dataclass
class RunMetrics:
    """Aggregated metrics for one full algorithm execution.

    ``extras`` carries algorithm-specific measurements, keyed by name —
    e.g. ``{"sketch_bytes": 123456, "sample_size": 789}`` for SP-Cube.
    """

    algorithm: str
    jobs: List[JobMetrics] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    output_groups: int = 0
    #: Set when the run died outside any job (e.g. a DFS broadcast read
    #: exhausted every replica); counts as a failure.
    fatal_error: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end simulated running time (Figures 4a/5a/6a/7a/8a)."""
        return sum(job.total_seconds for job in self.jobs)

    @property
    def intermediate_bytes(self) -> int:
        """Total map-output traffic across rounds (Figures 4c/6b/7c/8c)."""
        return sum(job.map_output_bytes for job in self.jobs)

    @property
    def intermediate_records(self) -> int:
        return sum(job.map_output_records for job in self.jobs)

    @property
    def avg_map_seconds(self) -> float:
        """Average map time of the (last) cube round."""
        cube_round = self._cube_round()
        return cube_round.avg_map_seconds if cube_round else 0.0

    @property
    def avg_reduce_seconds(self) -> float:
        """Average reduce time of the (last) cube round."""
        cube_round = self._cube_round()
        return cube_round.avg_reduce_seconds if cube_round else 0.0

    @property
    def failed(self) -> bool:
        """True when the run got stuck: an algorithm's own failure model
        (Hive's out-of-memory reducers at p>=0.4), an aborted round (retry
        budget exhausted), or a fatal out-of-job error.  Superseded executions — rounds that failed to
        a node loss but were re-executed from a checkpoint — do not fail
        the run: recovery worked."""
        return self.fatal_error is not None or any(
            job.failed for job in self.jobs if not job.superseded
        )

    @property
    def aborted(self) -> bool:
        """True when a round aborted or the run died outside any job —
        unlike a forced failure, an aborted run has no trustworthy output.
        Superseded (checkpoint-recovered) executions are excluded."""
        return self.fatal_error is not None or any(
            job.aborted for job in self.jobs if not job.superseded
        )

    @property
    def nodes_lost(self) -> int:
        """Topology nodes lost across the run (each round reports the
        nodes that died in its window; a node dies at most once)."""
        return sum(len(job.dead_nodes) for job in self.jobs)

    @property
    def resumed_rounds(self) -> int:
        """Round executions that failed to a node loss and were replaced
        by a checkpoint resume."""
        return sum(1 for job in self.jobs if job.superseded)

    @property
    def attempts(self) -> int:
        """Total task attempts across rounds (retries and backups incl.)."""
        return sum(job.attempts for job in self.jobs)

    @property
    def killed_tasks(self) -> int:
        """Attempts killed across rounds (crashes + losing backups)."""
        return sum(job.killed_tasks for job in self.jobs)

    @property
    def speculative_wins(self) -> int:
        """Tasks completed by a speculative backup copy, across rounds."""
        return sum(job.speculative_wins for job in self.jobs)

    @property
    def recovered(self) -> int:
        """Tasks that failed at least once but ultimately succeeded."""
        return sum(job.recovered for job in self.jobs)

    def recovery_overhead(self) -> float:
        """Simulated seconds the run spent on fault recovery, across
        rounds — lost attempts, detection delays, backoffs, and residual
        straggle after speculation.  Each chain's cost is counted exactly
        once, on its winning attempt (see
        ``JobMetrics.recovery_overhead_seconds``)."""
        return sum(job.recovery_overhead_seconds for job in self.jobs)

    def check_invariants(self) -> None:
        """Run every round's accounting checks (see ``JobMetrics``)."""
        for job in self.jobs:
            job.check_invariants()

    @property
    def reducer_balance(self) -> float:
        """max/mean reducer input of the cube round (1.0 = perfectly even).

        Section 6.2 closes by noting SP-Cube's reducer outputs were of
        similar sizes; this ratio quantifies that.
        """
        cube_round = self._cube_round()
        if cube_round is None:
            return 0.0
        loads = [r for r in cube_round.reducer_input_records if r > 0]
        if not loads:
            return 0.0
        return max(loads) / (sum(loads) / len(loads))

    def _cube_round(self) -> Optional[JobMetrics]:
        """The round that did the cube's work: the one shuffling the most.

        Multi-round algorithms surround the materialization round with
        cheap sampling/post-aggregation rounds; per-task averages quoted
        for the run (as the paper does) refer to the dominant round.
        Superseded executions are skipped — their successful rerun
        carries the round's real numbers.
        """
        live = [job for job in self.jobs if not job.superseded]
        if not live:
            return None
        return max(live, key=lambda job: job.map_output_records)
