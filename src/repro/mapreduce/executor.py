"""Task-execution backends for the simulated engine.

The engine's map and reduce tasks are independent by construction — the
same property real MapReduce exploits for scale-out — so a phase's tasks
can run interleaved without touching the simulation's semantics.  The
paper's parallelism is *simulated* (the cost model charges it); the host
backends exist so the identity and fault tests can interleave tasks, not
to make a run faster:

* :class:`SerialExecutor` — the default: tasks run one after another,
  stopping early once a task aborts.
* :class:`ParallelExecutor` — the phase's tasks interleaved on a few
  threads of the same process (``ClusterConfig.parallelism`` > 1).

Determinism is preserved by contract, not by luck:

1. every task is a **pure function** of its inputs (chunk, job, fault
   plan, retry policy) — fault coin flips are seeded per
   ``(job, phase, task, attempt)`` identity, never per execution order;
2. the executor returns outcomes **in task-index order**, and the engine
   merges them in that order, so shuffle buckets, metrics counters and
   attempt chains are bit-identical to a serial run;
3. a task chain that exhausts its retry budget produces an *outcome*
   (``task is None``), never an exception; the engine truncates the merge
   at the first aborted index, which reproduces serial early-stopping
   even when the threads have already run the later tasks.

:func:`run_task_chain` is the pure attempt-chain driver shared by both
backends: it accumulates the fault-tolerance counters into the returned
:class:`TaskOutcome` instead of mutating shared job metrics, which is
what makes tasks safe to interleave.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..observability.tracer import attempt_counters
from .costmodel import CostModel
from .faults import FaultPlan, RetryPolicy
from .metrics import TaskMetrics

@dataclass
class TaskOutcome:
    """Everything one task's attempt chain produced.

    ``task`` is the winning attempt's metrics (``seconds`` covering the
    whole chain) or ``None`` when the retry budget was exhausted; the
    fault-tolerance counters are carried here instead of being written to
    shared :class:`~repro.mapreduce.metrics.JobMetrics`, so chains can
    run interleaved and be merged deterministically afterwards.
    """

    task: Optional[TaskMetrics]
    payload: object
    chain_seconds: float = 0.0
    attempts: int = 0
    killed_tasks: int = 0
    speculative_wins: int = 0
    recovered: int = 0
    killed_attempts: List[TaskMetrics] = field(default_factory=list)
    #: Chain-local trace records (attempt spans + fault events) with
    #: times relative to the chain's start; ``None`` unless the chain ran
    #: with ``trace=True``.  The driver offsets them onto the simulated
    #: timeline and emits them in task-index order, which is what makes
    #: trace files bit-identical across serial and parallel backends.
    trace: Optional[List[dict]] = None

    @property
    def exhausted(self) -> bool:
        """True when the chain ran out of attempts (the job must abort)."""
        return self.task is None


def run_task_chain(
    attempt_fn: Callable[[], tuple],
    *,
    job_name: str,
    phase: str,
    machine: int,
    faults: FaultPlan,
    retry: RetryPolicy,
    cost: CostModel,
    trace: bool = False,
    node_kill_at: Optional[float] = None,
) -> TaskOutcome:
    """Drive one logical task through crash-retry and speculation.

    ``attempt_fn`` executes one full attempt from the task's input and
    returns ``(task, payload)`` with ``task.seconds`` set to the attempt's
    nominal (fault-free) runtime.  The winning attempt's ``task.seconds``
    covers the whole chain of failed attempts, detection delays, backoffs
    and the winner; an exhausted budget yields ``task=None`` with the
    dead chain's accumulated seconds.

    ``node_kill_at`` is the phase-relative instant this task's node dies
    (``None`` = the node survives).  An attempt overlapping that instant
    is killed with only its pre-kill work lost; every retry after it is
    placed on the same (now dead) slot and dies immediately, so the
    chain deterministically exhausts — a node loss always surfaces as an
    aborted round for the checkpoint layer to resume, never as a quiet
    retry.  The cause is recorded on the crash event so traces separate
    node deaths from ordinary task crashes.

    With ``trace=True`` the chain also buffers one attempt span per
    execution and one event per injected fault into ``outcome.trace``,
    with chain-relative times — local to the chain, whichever thread
    runs it, and merged deterministically by the driver (see
    :mod:`repro.observability.tracer`).
    """
    outcome = TaskOutcome(task=None, payload=None)
    records: Optional[List[dict]] = [] if trace else None
    if trace:
        outcome.trace = records
    chain_seconds = 0.0
    for attempt in range(retry.max_attempts):
        task, payload = attempt_fn()
        task.attempt = attempt
        outcome.attempts += 1
        nominal = task.seconds

        crashed = faults.crashes(job_name, phase, machine, attempt)
        if crashed:
            # The attempt dies and its output is discarded; the chain pays
            # for the lost work, the heartbeat timeout, and the backoff.
            lost = nominal
        else:
            factor = faults.slowdown_factor(job_name, phase, machine, attempt)
            seconds = nominal * factor
            lost = None
            if node_kill_at is not None and (
                node_kill_at <= chain_seconds
                or node_kill_at < chain_seconds + seconds
            ):
                # The node hosting this slot dies while the attempt runs
                # (or was already dead when the attempt would have been
                # placed): only the pre-kill work is lost.
                lost = min(max(node_kill_at - chain_seconds, 0.0), seconds)

        if lost is not None:
            task.killed = True
            task.seconds = lost
            backoff = retry.backoff_seconds(attempt + 1)
            if records is not None:
                records.append(
                    _attempt_span(
                        job_name, phase, machine, attempt,
                        chain_seconds, chain_seconds + lost,
                        "killed", task,
                    )
                )
                fields = {
                    "lost_seconds": lost,
                    "detection_seconds": cost.crash_detection_seconds,
                    "backoff_seconds": backoff,
                }
                if not crashed:
                    fields["cause"] = "node-kill"
                records.append({
                    "type": "event", "kind": "crash",
                    "job": job_name, "phase": phase, "task": machine,
                    "attempt": attempt, "at": chain_seconds + lost,
                    "fields": fields,
                })
            chain_seconds += cost.retry_overhead_seconds(lost, backoff)
            outcome.killed_tasks += 1
            outcome.killed_attempts.append(task)
            continue

        if records is not None and factor > 1.0:
            records.append({
                "type": "event", "kind": "straggle",
                "job": job_name, "phase": phase, "task": machine,
                "attempt": attempt, "at": chain_seconds,
                "fields": {"factor": factor, "nominal_seconds": nominal},
            })
        if (
            retry.speculation_enabled
            and nominal > 0.0
            and seconds >= retry.speculation_threshold * nominal
        ):
            # Speculative execution: a backup copy starts after the
            # framework's detection delay; first finisher wins, the loser
            # is killed, and only the winner's (identical) output is kept.
            backup_seconds = cost.speculation_launch_seconds + nominal
            outcome.attempts += 1
            outcome.killed_tasks += 1
            won = backup_seconds < seconds
            if records is not None:
                records.append({
                    "type": "event", "kind": "speculation",
                    "job": job_name, "phase": phase, "task": machine,
                    "attempt": attempt, "at": chain_seconds,
                    "fields": {
                        "won": won,
                        "backup_seconds": backup_seconds,
                        "slowed_seconds": seconds,
                    },
                })
            if won:
                seconds = backup_seconds
                task.speculative = True
                outcome.speculative_wins += 1

        task.seconds = chain_seconds + seconds
        task.overhead_seconds = chain_seconds + (seconds - nominal)
        if records is not None:
            records.append(
                _attempt_span(
                    job_name, phase, machine, attempt,
                    chain_seconds, chain_seconds + seconds,
                    "speculative" if task.speculative else "ok", task,
                )
            )
        if attempt > 0 or task.speculative:
            outcome.recovered += 1
        outcome.task = task
        outcome.payload = payload
        outcome.chain_seconds = chain_seconds
        return outcome
    outcome.chain_seconds = chain_seconds
    return outcome


def _attempt_span(
    job_name: str,
    phase: str,
    machine: int,
    attempt: int,
    t0: float,
    t1: float,
    status: str,
    task: TaskMetrics,
) -> dict:
    """One attempt's span record (chain-relative times, no seq yet)."""
    return {
        "type": "span", "kind": "attempt", "name": phase,
        "job": job_name, "phase": phase, "task": machine,
        "attempt": attempt, "t0": t0, "t1": t1, "status": status,
        "counters": attempt_counters(task),
    }


class SerialExecutor:
    """Run tasks one after another (the default).

    Stops dispatching as soon as a task chain exhausts its retry budget —
    later tasks never run and contribute nothing.
    """

    name = "serial"

    def run_tasks(
        self,
        tasks: Sequence[Callable[[], TaskOutcome]],
        stop_early: Optional[Callable[[TaskOutcome], bool]] = None,
    ) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for task in tasks:
            outcome = task()
            outcomes.append(outcome)
            if stop_early is not None and stop_early(outcome):
                break
        return outcomes


class ParallelExecutor:
    """Interleave a phase's tasks on ``max_workers`` threads.

    Outcomes come back in task-index order, so the engine's merge — and
    therefore the cube, the metrics and the fault chains — is
    bit-identical to serial.  Every task runs (``stop_early`` is not
    consulted); the engine truncates the merge at the first dead chain.
    """

    name = "parallel"

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def run_tasks(
        self,
        tasks: Sequence[Callable[[], TaskOutcome]],
        stop_early: Optional[Callable[[TaskOutcome], bool]] = None,
    ) -> List[TaskOutcome]:
        with ThreadPoolExecutor(self.max_workers) as pool:
            return list(pool.map(lambda task: task(), tasks))
