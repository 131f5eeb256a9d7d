"""Trace analysis: reconstruct a run's story from its record stream.

Given a JSON-lines trace (or the records of a
:class:`~repro.observability.tracer.MemorySink`), a :class:`TraceAnalysis`
rebuilds, without touching the simulator:

* **attempt chains** — every task's ordered list of attempts, with the
  killed ones and the speculative backups;
* **recovery counters** — attempts launched, attempts killed, speculative
  wins, tasks recovered — defined exactly as
  :class:`~repro.mapreduce.metrics.JobMetrics` counts them, so the
  analyzer's numbers can be diffed 1:1 against ``RunMetrics`` (the
  integration suite asserts the match);
* **per-reducer load** — records delivered to each reduce task of a job,
  the histogram the paper's balance argument (Section 6.2) rests on;
* **critical path / straggler timelines** — per phase, which task chain
  gates the round and how the other tasks' spans lay out against it.

The accounting identities used throughout (mirroring the engine):

* every *attempt span* is one first execution or one retry; a
  *speculation event* adds one backup attempt and one killed copy that
  have no span of their own (the backup's output is identical);
* a task *recovered* when its winning span has ``attempt > 0`` or status
  ``"speculative"``;
* a job's shuffled pairs are the ``records_in`` of its winning reduce
  attempt spans.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from .schema import ALERT_KINDS, TraceSchemaError, record_problems


def load_trace(path) -> List[Dict]:
    """Read a JSON-lines trace file into a record list (seq order).

    The one loader behind every trace consumer.  Raises
    :class:`ValueError` with a one-line ``PATH:LINE: ...`` reason on
    damaged files: a truncated final line fails the JSON parse, a line
    that *is* valid JSON but not an object (``42``, ``"oops"``) is
    rejected here rather than surfacing later as an ``AttributeError``,
    and a record that violates the schema (a foreign dialect, a
    non-numeric time or counter) raises the
    :class:`~repro.observability.schema.TraceSchemaError` subclass.  A
    file with no records is ``PATH: empty trace``.
    """
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: trace record must be a JSON "
                    f"object, got {type(record).__name__}"
                )
            problems = record_problems(record)
            if problems:
                raise TraceSchemaError(
                    f"{path}:{line_number}: " + "; ".join(problems)
                )
            records.append(record)
    if not records:
        raise ValueError(f"{path}: empty trace")
    return records


class TraceAnalysis:
    """Indexed view over one trace's records."""

    def __init__(self, records: Iterable[Dict]):
        self.records: List[Dict] = sorted(
            records, key=lambda r: r.get("seq", 0)
        )
        self.runs = self._spans("run")
        self.jobs = self._spans("job")
        self.phases = self._spans("phase")
        self.attempts = self._spans("attempt")
        self.events = [r for r in self.records if r.get("type") == "event"]

    @classmethod
    def from_file(cls, path) -> "TraceAnalysis":
        return cls(load_trace(path))

    def _spans(self, kind: str) -> List[Dict]:
        return [
            r
            for r in self.records
            if r.get("type") == "span" and r.get("kind") == kind
        ]

    # -- filters ------------------------------------------------------------

    def job_names(self) -> List[str]:
        """Traced job names, in execution order."""
        seen: List[str] = []
        for span in self.jobs:
            if span["name"] not in seen:
                seen.append(span["name"])
        return seen

    def _select(self, records: List[Dict], job: Optional[str],
                phase: Optional[str] = None) -> List[Dict]:
        return [
            r
            for r in records
            if (job is None or r.get("job") == job)
            and (phase is None or r.get("phase") == phase)
        ]

    def _spec_events(self, job: Optional[str]) -> List[Dict]:
        return [
            e
            for e in self._select(self.events, job)
            if e.get("kind") == "speculation"
        ]

    # -- attempt chains and recovery counters -------------------------------

    def attempt_chains(
        self, job: Optional[str] = None
    ) -> Dict[Tuple[str, str, int], List[Dict]]:
        """``{(job, phase, task): [attempt spans in attempt order]}``."""
        chains: Dict[Tuple[str, str, int], List[Dict]] = {}
        for span in self._select(self.attempts, job):
            key = (span["job"], span["phase"], span["task"])
            chains.setdefault(key, []).append(span)
        for spans in chains.values():
            spans.sort(key=lambda s: s["attempt"])
        return chains

    def total_attempts(self, job: Optional[str] = None) -> int:
        """First executions + retries + speculative backups, as
        ``JobMetrics.attempts`` counts them."""
        return len(self._select(self.attempts, job)) + len(
            self._spec_events(job)
        )

    def killed_attempts(self, job: Optional[str] = None) -> int:
        """Crashed attempts plus losing speculative copies."""
        killed = sum(
            1
            for span in self._select(self.attempts, job)
            if span.get("status") == "killed"
        )
        return killed + len(self._spec_events(job))

    def speculative_wins(self, job: Optional[str] = None) -> int:
        return sum(
            1
            for event in self._spec_events(job)
            if event["fields"].get("won")
        )

    def recovered(self, job: Optional[str] = None) -> int:
        """Tasks that failed at least once but ultimately succeeded."""
        count = 0
        for spans in self.attempt_chains(job).values():
            winner = _winning(spans)
            if winner is not None and (
                winner["attempt"] > 0 or winner["status"] == "speculative"
            ):
                count += 1
        return count

    # -- failure domains and checkpoints ------------------------------------

    def _events_of_kind(self, kind: str, job: Optional[str] = None):
        return [
            e for e in self._select(self.events, job) if e.get("kind") == kind
        ]

    def nodes_lost(self, job: Optional[str] = None) -> List[int]:
        """Nodes reported dead (``node_lost`` events), in firing order."""
        return [
            e["fields"]["node"] for e in self._events_of_kind("node_lost", job)
        ]

    def checkpoint_writes(self, job: Optional[str] = None) -> List[Dict]:
        """The ``fields`` of every committed-round checkpoint event."""
        return [
            e["fields"] for e in self._events_of_kind("checkpoint_write", job)
        ]

    def resumed_rounds(self, job: Optional[str] = None) -> List[Dict]:
        """The ``fields`` of every ``round_resume`` event (partial reruns)."""
        return [
            e["fields"] for e in self._events_of_kind("round_resume", job)
        ]

    # -- watchdog alerts -----------------------------------------------------

    def alerts(self, job: Optional[str] = None,
               kind: Optional[str] = None) -> List[Dict]:
        """Watchdog alert events, in emission order.

        Each entry is the full event record (``kind``, ``job``, ``at``
        and the alert's ``fields``); filter by ``job`` and/or alert
        ``kind`` (``skew_alert`` / ``misannotation_alert`` /
        ``straggler_alert``).
        """
        return [
            e
            for e in self._select(self.events, job)
            if e.get("kind") in ALERT_KINDS
            and (kind is None or e.get("kind") == kind)
        ]

    def alert_counts(self) -> Dict[str, int]:
        """``{alert kind: count}`` over the whole trace (zero-free)."""
        counts: Dict[str, int] = {}
        for event in self.alerts():
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    # -- per-reducer load ---------------------------------------------------

    def reducer_records(self, job: str) -> Dict[int, int]:
        """``{reduce task: records delivered}`` for one job."""
        loads: Dict[int, int] = {}
        for spans in self.attempt_chains(job).values():
            winner = _winning(spans)
            if winner is None or winner["phase"] != "reduce":
                continue
            loads[winner["task"]] = winner["counters"].get("records_in", 0)
        return dict(sorted(loads.items()))

    def dominant_job(self) -> Optional[str]:
        """The job shuffling the most pairs (the cube round, normally)."""
        best, best_pairs = None, -1
        for span in self.jobs:
            pairs = span["counters"].get("map_output_records", 0)
            if pairs > best_pairs:
                best, best_pairs = span["name"], pairs
        return best

    def reducer_histogram(self, job: str, width: int = 40) -> str:
        """Text histogram of per-reducer delivered records."""
        loads = self.reducer_records(job)
        if not loads:
            return f"(no reduce attempts traced for {job!r})"
        peak = max(loads.values()) or 1
        lines = [f"per-reducer records, job {job!r}:"]
        for task, records in loads.items():
            bar = "#" * max(1 if records else 0, round(width * records / peak))
            lines.append(f"  r{task:<3d} {records:>9d} {bar}")
        mean = sum(loads.values()) / len(loads)
        nonzero = [v for v in loads.values() if v]
        balance = (max(nonzero) / (sum(nonzero) / len(nonzero))) if nonzero else 0.0
        lines.append(
            f"  mean {mean:.1f} records/reducer, max/mean {balance:.2f}"
        )
        return "\n".join(lines)

    # -- timelines ----------------------------------------------------------

    def critical_path(self, job: str) -> List[Dict]:
        """Per phase of ``job``, the chain that gates the round.

        Returns one summary dict per traced phase: the task whose last
        attempt finishes latest, its attempt count, and its share of the
        phase duration.
        """
        summaries: List[Dict] = []
        for phase_span in self._select(self.phases, job):
            phase = phase_span["phase"]
            chains = {
                key: spans
                for key, spans in self.attempt_chains(job).items()
                if key[1] == phase
            }
            if not chains:
                continue
            key, spans = max(
                chains.items(), key=lambda item: item[1][-1]["t1"]
            )
            duration = phase_span["t1"] - phase_span["t0"]
            chain_end = spans[-1]["t1"]
            summaries.append(
                {
                    "phase": phase,
                    "task": key[2],
                    "attempts": len(spans),
                    "chain_seconds": chain_end - spans[0]["t0"],
                    "phase_seconds": duration,
                    "speculative": spans[-1]["status"] == "speculative",
                }
            )
        return summaries

    def straggler_timeline(
        self, job: str, phase: str = "reduce", width: int = 50
    ) -> str:
        """ASCII per-task timeline of one phase — stragglers stick out.

        Each task renders one row spanning its attempt chain; ``x`` marks
        the killed portion of the chain (lost attempts, detection,
        backoff), ``=`` the winning attempt, ``s`` a speculative winner.
        """
        chains = {
            key: spans
            for key, spans in self.attempt_chains(job).items()
            if key[1] == phase
        }
        if not chains:
            return f"(no {phase} attempts traced for {job!r})"
        t0 = min(spans[0]["t0"] for spans in chains.values())
        t1 = max(spans[-1]["t1"] for spans in chains.values())
        extent = max(t1 - t0, 1e-12)

        def column(t: float) -> int:
            return min(width - 1, int(width * (t - t0) / extent))

        lines = [
            f"{phase} timeline, job {job!r} "
            f"({t1 - t0:.1f}s simulated, {len(chains)} tasks):"
        ]
        for (_job, _phase, task), spans in sorted(chains.items()):
            row = [" "] * width
            winner = _winning(spans)
            for span in spans:
                lo, hi = column(span["t0"]), column(span["t1"])
                if span.get("status") == "killed":
                    mark = "x"
                elif span.get("status") == "speculative":
                    mark = "s"
                else:
                    mark = "="
                for i in range(lo, hi + 1):
                    row[i] = mark
            chain_seconds = spans[-1]["t1"] - spans[0]["t0"]
            note = f"{chain_seconds:7.1f}s {len(spans)} attempt(s)"
            if winner is None:
                note += ", EXHAUSTED"
            elif winner["status"] == "speculative":
                note += ", spec win"
            lines.append(f"  t{task:<3d}|{''.join(row)}| {note}")
        return "\n".join(lines)

    # -- summaries ----------------------------------------------------------

    def summary_dict(self) -> Dict:
        """Machine-readable run summary with a stable schema.

        The JSON twin of :meth:`format_summary`, consumed by
        ``analyze-trace --format json`` and any downstream tooling that
        would otherwise scrape the text report.
        Keys are append-only: fields are never renamed or removed, only
        added, so readers must tolerate unknown keys.
        """
        runs = [
            {
                "name": run["name"],
                "seconds": run["t1"] - run["t0"],
                "status": run["status"],
            }
            for run in self.runs
        ]
        jobs = []
        for span in self.jobs:
            jobs.append(
                {
                    "name": span["name"],
                    "seconds": span["t1"] - span["t0"],
                    "status": span["status"],
                    "map_output_records": span["counters"].get(
                        "map_output_records", 0
                    ),
                    "attempts": self.total_attempts(span["name"]),
                }
            )
        lost = self.nodes_lost()
        dominant = self.dominant_job()
        reducer_loads = (
            {str(task): records
             for task, records in self.reducer_records(dominant).items()}
            if dominant is not None
            else {}
        )
        critical = (
            self.critical_path(dominant) if dominant is not None else []
        )
        return {
            "schema_version": 1,
            "records": len(self.records),
            "runs": runs,
            "recovery": self.recovery_summary(),
            "failure_domains": {
                "nodes_lost": sorted(set(lost)),
                "node_loss_events": len(lost),
                "round_resumes": len(self.resumed_rounds()),
                "checkpoints_committed": len(self.checkpoint_writes()),
            },
            "jobs": jobs,
            "dominant_job": dominant,
            "reducer_loads": reducer_loads,
            "critical_path": critical,
            "alerts": self.alert_counts(),
        }

    def recovery_summary(self) -> Dict[str, int]:
        """The four recovery counters over the whole trace."""
        return {
            "attempts": self.total_attempts(),
            "killed": self.killed_attempts(),
            "speculative_wins": self.speculative_wins(),
            "recovered": self.recovered(),
        }

    def format_summary(self, timeline_width: int = 50) -> str:
        """The analyzer's full human-readable report."""
        lines: List[str] = []
        for run in self.runs:
            seconds = run["t1"] - run["t0"]
            lines.append(
                f"run {run['name']}: {seconds:.1f}s simulated, "
                f"status {run['status']}"
            )
        recovery = self.recovery_summary()
        lines.append(
            "recovery: {attempts} attempts, {killed} killed, "
            "{speculative_wins} speculative wins, "
            "{recovered} tasks recovered".format(**recovery)
        )
        lost = self.nodes_lost()
        if lost:
            resumes = self.resumed_rounds()
            lines.append(
                f"failure domains: {len(lost)} node(s) lost "
                f"({sorted(set(lost))}), {len(resumes)} round resume(s), "
                f"{len(self.checkpoint_writes())} checkpoint(s) committed"
            )
        alert_counts = self.alert_counts()
        if alert_counts:
            lines.append(
                "watchdog: "
                + ", ".join(
                    f"{count} {kind}"
                    for kind, count in sorted(alert_counts.items())
                )
            )
        for span in self.jobs:
            job_seconds = span["t1"] - span["t0"]
            lines.append(
                f"  job {span['name']}: {job_seconds:.1f}s, "
                f"{span['counters'].get('map_output_records', 0)} pairs, "
                f"{self.total_attempts(span['name'])} attempts, "
                f"status {span['status']}"
            )
        dominant = self.dominant_job()
        if dominant is not None:
            lines.append("")
            lines.append(self.reducer_histogram(dominant))
            for phase in ("map", "reduce"):
                if self._select(self.attempts, dominant, phase):
                    lines.append("")
                    lines.append(
                        self.straggler_timeline(
                            dominant, phase, width=timeline_width
                        )
                    )
            for summary in self.critical_path(dominant):
                lines.append(
                    f"critical path [{summary['phase']}]: task "
                    f"{summary['task']} ({summary['attempts']} attempts, "
                    f"{summary['chain_seconds']:.1f}s of the "
                    f"{summary['phase_seconds']:.1f}s phase"
                    + (", spec win)" if summary["speculative"] else ")")
                )
        return "\n".join(lines)


def _winning(spans: List[Dict]) -> Optional[Dict]:
    """The chain's successful attempt, or None if it exhausted its budget."""
    for span in reversed(spans):
        if span.get("status") != "killed":
            return span
    return None
