"""Round-level checkpointing and partial re-execution after node loss.

Multi-round cube algorithms (MR-Cube's sample/materialize/post-aggregate
pipeline, SP-Cube's sketch + cube rounds) historically aborted the *whole
run* whenever one round died.  That is the abort-restart recovery model;
HaCube's argument — and real frameworks' behaviour — is that round
boundaries are natural checkpoints: the driver keeps each completed
round's reduce output and, after a failure, re-executes only the work the
failure actually destroyed.

The checkpoint is what the driver already holds: a completed round's
:class:`JobResult`, and, for a round a node death aborted, the partitions
whose reduce tasks finished before the death
(``JobResult.partial_reducer_outputs``).  :class:`RoundRunner` is the
recovery protocol.  Engines run every round through it.  On success the
round is checkpointed (``checkpoint_write`` trace event) and the
run-relative clock advances.  When a round aborts *because a failure
domain died* (``JobMetrics.dead_nodes`` non-empty — a plain
retry-exhaustion abort still aborts the run, preserving the engine's
historical contract), the runner: keeps the partitions that completed
before the death, records the failed execution as *superseded* (its
entire simulated time is recovery cost), replaces the dead nodes, and
re-executes the round with only the lost partitions
(``completed_reducers``) — emitting a ``round_resume`` trace event.

Determinism: the rerun reuses the same per-task fault coins (attempt
identities are unchanged), which is safe because absent the node kill
those chains completed; the kill itself is spent — pinned kills by the
``replaced`` set, run-relative kills by the advanced run clock.  Serial
and parallel backends therefore resume identically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..observability.tracer import NULL_TRACER
from .cluster import ClusterConfig
from .engine import JobResult, MapReduceJob, Pair, run_job
from .metrics import RunMetrics

#: A resumable round is retried at most this many times before its abort
#: is allowed to stand — a backstop against plans that kill a node in
#: every window of a round (fresh nodes keep dying).
DEFAULT_MAX_ROUND_ATTEMPTS = 3


class RoundRunner:
    """Run an engine's rounds with checkpoint/resume recovery.

    One instance per algorithm execution.  The runner owns the
    run-relative simulated clock (so run-relative node kills land in the
    right round's window), the set of replaced nodes, and the appending
    of each execution's :class:`JobMetrics` — engines must *not* append
    job metrics themselves when running through it.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        metrics: RunMetrics,
        max_round_attempts: int = DEFAULT_MAX_ROUND_ATTEMPTS,
    ):
        if max_round_attempts < 1:
            raise ValueError("max_round_attempts must be >= 1")
        self.cluster = cluster
        self.metrics = metrics
        self.max_round_attempts = max_round_attempts
        #: Run-relative simulated seconds elapsed (includes failed
        #: executions — their time really passed).
        self.clock = 0.0
        #: Nodes lost and re-provisioned so far in this run.
        self.replaced: set = set()
        #: Index the next round will be checkpointed under.
        self.round_index = 0

    def run(
        self,
        job: MapReduceJob,
        input_chunks: Sequence[Sequence],
        memory_records: int,
    ) -> JobResult:
        """Execute one round, resuming over node losses when possible.

        Returns the round's final :class:`JobResult` — successful unless
        the abort was non-resumable (no node died, checkpointing is
        disabled, or the retry backstop ran out), in which case the
        aborted result is returned and the engine aborts the run exactly
        as it always did.
        """
        index = self.round_index
        self.round_index += 1
        checkpoint_enabled = self.cluster.checkpoint_enabled
        tracer = self.cluster.tracer or NULL_TRACER
        completed: Dict[int, List[Pair]] = {}
        salvaged_bytes = 0
        for round_attempt in range(self.max_round_attempts):
            result = run_job(
                job,
                input_chunks,
                self.cluster,
                memory_records,
                run_clock=self.clock,
                replaced_nodes=frozenset(self.replaced),
                completed_reducers=completed or None,
            )
            jm = result.metrics
            if not jm.aborted:
                self.metrics.jobs.append(jm)
                self.clock += jm.total_seconds
                if checkpoint_enabled and tracer.enabled:
                    tracer.event(
                        "checkpoint_write", at=tracer.clock, job=job.name,
                        fields={
                            "round": index,
                            "num_parts": len(result.reducer_outputs),
                            "run_clock": self.clock,
                            # Every partition's bytes_out, counted in
                            # the execution its reduce task finished in.
                            "bytes": salvaged_bytes + sum(
                                t.bytes_out for t in jm.reduce_tasks
                            ),
                        },
                    )
                return result
            resumable = (
                bool(jm.dead_nodes)
                and checkpoint_enabled
                and round_attempt + 1 < self.max_round_attempts
            )
            if not resumable:
                self.metrics.jobs.append(jm)
                self.clock += jm.total_seconds
                return result
            # A failure domain took the round down: record the failed
            # execution (its whole duration is recovery cost), keep
            # what completed, replace the dead nodes, and rerun only the
            # lost partitions.
            jm.superseded = True
            self.metrics.jobs.append(jm)
            self.clock += jm.total_seconds
            completed.update(result.partial_reducer_outputs)
            salvaged_bytes += sum(t.bytes_out for t in jm.reduce_tasks)
            self.replaced.update(jm.dead_nodes)
            if tracer.enabled:
                tracer.event(
                    "round_resume", at=tracer.clock, job=job.name,
                    fields={
                        "round": index,
                        "salvaged_partitions": sorted(completed),
                        "replaced_nodes": sorted(jm.dead_nodes),
                    },
                )
        raise AssertionError("unreachable: loop always returns")
