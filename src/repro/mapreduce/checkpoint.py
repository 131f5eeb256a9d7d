"""Round-level checkpointing and partial re-execution after node loss.

Multi-round cube algorithms (MR-Cube's sample/materialize/post-aggregate
pipeline, SP-Cube's sketch + cube rounds) historically aborted the *whole run* whenever one round died.
That is the abort-restart recovery model; HaCube's argument — and real
frameworks' behaviour — is that round boundaries are natural checkpoints:
a completed round's reduce output persisted to the DFS lets the driver
resume from the last good round and re-execute only the work the failure
actually destroyed.

Two pieces:

* :class:`CheckpointManager` — the persistence format.  Each completed
  round ``i`` of a run is stored under ``ckpt/<run_id>/round-<i>/`` as one
  ``part-<r>`` file per reduce partition plus a ``MANIFEST`` written
  *last* — a reader that finds no manifest (crash mid-write) must treat
  the checkpoint as absent, and :meth:`CheckpointManager.load_round`
  enforces exactly that.  Deletion is manifest-*first* for the same
  reason: a half-deleted checkpoint is invisible, never half-loaded.
* :class:`RoundRunner` — the recovery protocol.  Engines run every round
  through it.  On success the round is checkpointed (``checkpoint_write``
  trace event) and the run-relative clock advances.  When a round aborts
  *because a failure domain died* (``JobMetrics.dead_nodes`` non-empty —
  a plain retry-exhaustion abort still aborts the run, preserving the
  engine's historical contract), the runner: marks the dead nodes' DFS
  replicas lost, salvages the partitions that completed before the death
  as checkpoint parts, records the failed execution as *superseded* (its
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

from typing import Dict, List, Optional, Sequence

from ..observability.tracer import NULL_TRACER
from .cluster import ClusterConfig
from .dfs import DistributedFileSystem, ReplicaExhausted
from .engine import JobResult, MapReduceJob, Pair, run_job
from .metrics import RunMetrics

#: Root of every checkpoint path.
CHECKPOINT_ROOT = "ckpt"

#: A resumable round is retried at most this many times before its abort
#: is allowed to stand — a backstop against plans that kill a node in
#: every window of a round (fresh nodes keep dying).
DEFAULT_MAX_ROUND_ATTEMPTS = 3


class CheckpointManager:
    """Persist completed rounds to the DFS under a crash-safe manifest."""

    def __init__(
        self,
        dfs: DistributedFileSystem,
        run_id: str = "run",
        enabled: bool = True,
    ):
        self.dfs = dfs
        self.run_id = run_id
        self.enabled = enabled

    # -- paths ---------------------------------------------------------------

    def round_prefix(self, index: int) -> str:
        return f"{CHECKPOINT_ROOT}/{self.run_id}/round-{index}/"

    def part_path(self, index: int, part: int) -> str:
        return f"{self.round_prefix(index)}part-{part}"

    def manifest_path(self, index: int) -> str:
        return f"{self.round_prefix(index)}MANIFEST"

    # -- writing -------------------------------------------------------------

    def save_part(self, index: int, part: int, pairs: Sequence[Pair]) -> None:
        """Persist one partition's reduce output (salvage after a loss)."""
        if not self.enabled:
            return
        self.dfs.write(self.part_path(index, part), list(pairs))

    def save_round(
        self,
        index: int,
        job_name: str,
        reducer_outputs: Sequence[Sequence[Pair]],
        clock: float = 0.0,
        trace_watermark: int = 0,
    ) -> None:
        """Checkpoint a completed round: parts first, manifest last.

        The manifest is the commit record — until it lands, a reader sees
        no checkpoint at all, so a crash mid-write can never surface a
        half-round.
        """
        if not self.enabled:
            return
        for part, pairs in enumerate(reducer_outputs):
            self.dfs.write(self.part_path(index, part), list(pairs))
        self.dfs.write(
            self.manifest_path(index),
            [{
                "round": index,
                "job": job_name,
                "num_parts": len(reducer_outputs),
                "clock": clock,
                "trace_watermark": trace_watermark,
            }],
        )

    # -- reading -------------------------------------------------------------

    def load_round(self, index: int) -> Optional[Dict]:
        """The checkpointed round, or ``None`` when absent or unusable.

        ``None`` covers every partial-write and partial-loss shape: no
        manifest (crash before commit), a part named by the manifest but
        missing or unreadable (node losses exhausted its replicas), or a
        malformed manifest record.  A resume must *never* trust a
        checkpoint the manifest does not fully vouch for.
        """
        manifest_path = self.manifest_path(index)
        if not self.dfs.exists(manifest_path):
            return None
        try:
            records = self.dfs.read(manifest_path)
            manifest = records[0]
            num_parts = manifest["num_parts"]
            outputs: Dict[int, List[Pair]] = {}
            for part in range(num_parts):
                path = self.part_path(index, part)
                if not self.dfs.exists(path):
                    return None
                outputs[part] = self.dfs.read(path)  # a fresh list
        except (ReplicaExhausted, KeyError, IndexError, TypeError):
            return None
        return {"manifest": manifest, "outputs": outputs}


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
        dfs: Optional[DistributedFileSystem] = None,
        run_id: str = "run",
        max_round_attempts: int = DEFAULT_MAX_ROUND_ATTEMPTS,
    ):
        if max_round_attempts < 1:
            raise ValueError("max_round_attempts must be >= 1")
        self.cluster = cluster
        self.metrics = metrics
        if dfs is None:
            dfs = DistributedFileSystem(
                fault_plan=cluster.fault_plan, topology=cluster.topology()
            )
        self.dfs = dfs
        self.checkpoint = CheckpointManager(
            dfs, run_id=run_id, enabled=cluster.checkpoint_enabled
        )
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
        tracer = self.cluster.tracer or NULL_TRACER
        completed: Dict[int, List[Pair]] = {}
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
            if jm.dead_nodes:
                # The failure domain's DFS replicas die with it,
                # regardless of whether the round itself survived.
                self.dfs.mark_nodes_dead(jm.dead_nodes)
            if not jm.aborted:
                self.metrics.jobs.append(jm)
                self.clock += jm.total_seconds
                self.checkpoint.save_round(
                    index,
                    job.name,
                    result.reducer_outputs,
                    clock=self.clock,
                    trace_watermark=tracer.seq,
                )
                if self.checkpoint.enabled and tracer.enabled:
                    tracer.event(
                        "checkpoint_write", at=tracer.clock, job=job.name,
                        fields={
                            "round": index,
                            "num_parts": len(result.reducer_outputs),
                            "run_clock": self.clock,
                            # The reduce outputs being checkpointed are
                            # exactly what the reduce tasks emitted, so
                            # their already-accounted bytes_out is the
                            # checkpoint volume — no re-estimation pass
                            # over the (possibly huge) cube.
                            "bytes": sum(
                                t.bytes_out for t in jm.reduce_tasks
                            ),
                        },
                    )
                return result
            resumable = (
                bool(jm.dead_nodes)
                and self.checkpoint.enabled
                and round_attempt + 1 < self.max_round_attempts
            )
            if not resumable:
                self.metrics.jobs.append(jm)
                self.clock += jm.total_seconds
                return result
            # A failure domain took the round down: record the failed
            # execution (its whole duration is recovery cost), salvage
            # what completed, replace the dead nodes, and rerun only the
            # lost partitions.
            jm.superseded = True
            self.metrics.jobs.append(jm)
            self.clock += jm.total_seconds
            for part in sorted(result.partial_reducer_outputs):
                pairs = result.partial_reducer_outputs[part]
                completed[part] = pairs
                self.checkpoint.save_part(index, part, pairs)
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
