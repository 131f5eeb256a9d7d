"""Explain queries over a trace — from symptom back to cause.

A ``debug``-level trace carries one ``flow`` event per ``(map task,
reducer)`` pair with a per-cuboid record breakdown.
:class:`LineageIndex` — a trace sink, so it builds the same way live and
from a trace file — groups them per job execution, and two queries walk
them to answer the operator questions the production scenario starts
from:

* :func:`explain_reducer` — *why is this reducer hot?*  Aggregates every
  flow into one reducer of one job execution: which cuboids' groups
  landed there, emitted by which map tasks, fed by which input splits
  (map task ``i`` reads input split ``i`` — the engine's contract).
* :func:`explain_group` — *where did this cuboid's groups go?*
  Aggregates every flow carrying the cuboid across reducers and map
  tasks, so a doctor- or watchdog-flagged cuboid can be traced forward
  to the partitions it loaded.

Both default to the *dominant* job (most flow records — the cube round,
normally) and its latest execution, pull in the watchdog alerts that
mention the same reducer/cuboid, and return plain dicts;
:func:`format_explain_markdown` renders either as a report section.
Re-executed rounds are walked at their latest execution; partitions the
checkpoint layer salvaged are listed in the job's ``completed_reducers``
(their reduce task ran in an earlier execution).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .analyze import load_trace
from .lineage import JobAssembler
from .schema import ALERT_KINDS


class ExplainError(ValueError):
    """The trace cannot answer the requested query."""


def parse_cuboid(text: str) -> int:
    """A cuboid mask from CLI text — decimal, ``0x`` hex, or ``0b`` binary."""
    try:
        return int(str(text), 0)
    except ValueError:
        raise ExplainError(
            f"cuboid must be a lattice mask (decimal, 0x hex or 0b "
            f"binary), got {text!r}"
        ) from None


class LineageIndex:
    """Job executions, their flow edges and the alerts of one trace."""

    def __init__(self, records: Iterable[Dict] = ()):
        self.run_id = "run"
        #: ``{(job, execution): job view}`` — see
        #: :class:`~repro.observability.lineage.JobAssembler`.
        self.jobs: Dict[Tuple[str, int], Dict] = {}
        #: Alert events flattened to ``{kind, job, at, **fields}``.
        self.alerts: List[Dict] = []
        self._assembler = JobAssembler()
        for record in records:
            self.write(record)

    def write(self, record: Dict) -> None:
        """Consume one trace record (the sink face)."""
        kind = record.get("kind")
        if kind in ALERT_KINDS:
            self.alerts.append({
                "kind": kind, "job": record.get("job"), "at": record["at"],
                **record["fields"],
            })
        elif kind == "run":
            self.run_id = record["name"]
        else:
            job = self._assembler.write(record)
            if job is not None:
                self.jobs[job["job"], job["execution"]] = job

    @classmethod
    def from_file(cls, path) -> "LineageIndex":
        return cls(load_trace(path))

    # -- selection -----------------------------------------------------------

    def job_names(self) -> List[str]:
        """Distinct job names, in first-recorded order."""
        seen: List[str] = []
        for name, _execution in self.jobs:
            if name not in seen:
                seen.append(name)
        return seen

    def latest_execution(self, job: str) -> Tuple[str, int]:
        """The latest recorded execution of ``job``."""
        executions = [e for (name, e) in self.jobs if name == job]
        if not executions:
            raise ExplainError(
                f"job {job!r} not in trace; "
                f"recorded jobs: {self.job_names()}"
            )
        return (job, max(executions))

    def dominant_job(self) -> str:
        """The job whose flows carry the most records (the cube round)."""
        totals: Dict[str, int] = {}
        for (name, _execution), job in self.jobs.items():
            if job["flows"]:
                totals[name] = totals.get(name, 0) + sum(
                    flow["records"] for flow in job["flows"]
                )
        if not totals:
            raise ExplainError(
                "trace records no flow events; re-run with "
                "--trace-level debug"
            )
        return max(sorted(totals), key=lambda name: totals[name])

    def alerts_for(self, job: str, *, reducer: Optional[int] = None,
                   cuboid: Optional[int] = None) -> List[Dict]:
        """Alerts of ``job`` touching the given reducer and/or cuboid."""
        matched = []
        for alert in self.alerts:
            if alert.get("job") != job:
                continue
            if reducer is not None and "reducer" in alert \
                    and alert["reducer"] != reducer:
                continue
            if cuboid is not None and "cuboid" in alert \
                    and alert["cuboid"] != cuboid:
                continue
            matched.append(alert)
        return matched


def explain_reducer(
    records: List[Dict],
    job: Optional[str] = None,
    reducer: Optional[int] = None,
) -> Dict:
    """Walk the flows from one reducer back to cuboids and input splits.

    Defaults: the dominant job's latest execution, and its hottest
    reducer (most delivered flow records).
    """
    index = records if isinstance(records, LineageIndex) \
        else LineageIndex(records)
    if job is None:
        job = index.dominant_job()
    key = index.latest_execution(job)
    flows = index.jobs[key]["flows"]
    if not flows:
        raise ExplainError(f"no flows recorded for job {job!r}")

    per_reducer: Dict[int, int] = {}
    for flow in flows:
        per_reducer[flow["reducer"]] = (
            per_reducer.get(flow["reducer"], 0) + flow["records"]
        )
    if reducer is None:
        reducer = max(sorted(per_reducer), key=lambda r: per_reducer[r])
    elif reducer not in per_reducer:
        raise ExplainError(
            f"reducer {reducer} received no flows in job {job!r}; "
            f"reducers seen: {sorted(per_reducer)}"
        )

    mine = [flow for flow in flows if flow["reducer"] == reducer]
    by_cuboid: Dict[int, int] = {}
    map_tasks: Dict[int, Dict] = {}
    for flow in mine:
        entry = map_tasks.setdefault(
            flow["map_task"],
            {"map_task": flow["map_task"], "input_split": flow["map_task"],
             "records": 0, "bytes": 0},
        )
        entry["records"] += flow["records"]
        entry["bytes"] += flow["bytes"]
        for mask, count in flow["cuboids"].items():
            mask = int(mask)
            by_cuboid[mask] = by_cuboid.get(mask, 0) + count

    job_record = index.jobs[key]
    total = sum(per_reducer.values())
    return {
        "query": "explain-reducer",
        "run_id": index.run_id,
        "job": job,
        "execution": key[1],
        "reducer": reducer,
        "records": per_reducer[reducer],
        "bytes": sum(flow["bytes"] for flow in mine),
        "share": per_reducer[reducer] / total if total else 0.0,
        "job_records": total,
        "num_reducers": job_record["num_reducers"],
        "by_cuboid": {
            str(mask): by_cuboid[mask]
            for mask in sorted(by_cuboid, key=lambda m: -by_cuboid[m])
        },
        "map_tasks": [map_tasks[task] for task in sorted(map_tasks)],
        "salvaged": reducer in job_record.get("completed_reducers", []),
        "alerts": index.alerts_for(job, reducer=reducer),
    }


def explain_group(
    records: List[Dict],
    cuboid: int,
    job: Optional[str] = None,
) -> Dict:
    """Walk the flows from one cuboid forward to reducers and splits."""
    index = records if isinstance(records, LineageIndex) \
        else LineageIndex(records)
    if job is None:
        job = index.dominant_job()
    key = index.latest_execution(job)
    flows = index.jobs[key]["flows"]
    mask_key = str(cuboid)

    by_reducer: Dict[int, int] = {}
    map_tasks: Dict[int, Dict] = {}
    for flow in flows:
        count = flow["cuboids"].get(mask_key, 0)
        if not count:
            continue
        by_reducer[flow["reducer"]] = (
            by_reducer.get(flow["reducer"], 0) + count
        )
        entry = map_tasks.setdefault(
            flow["map_task"],
            {"map_task": flow["map_task"], "input_split": flow["map_task"],
             "records": 0},
        )
        entry["records"] += count
    if not by_reducer:
        seen = sorted(
            {int(mask) for flow in flows for mask in flow["cuboids"]}
        )
        raise ExplainError(
            f"cuboid {cuboid:#x} has no recorded flows in job {job!r}; "
            f"cuboids seen: {[hex(m) for m in seen]}"
        )

    total = sum(by_reducer.values())
    peak = max(by_reducer.values())
    return {
        "query": "explain-group",
        "run_id": index.run_id,
        "job": job,
        "execution": key[1],
        "cuboid": cuboid,
        "records": total,
        "by_reducer": {
            str(reducer): by_reducer[reducer]
            for reducer in sorted(by_reducer)
        },
        "hottest_reducer": max(
            sorted(by_reducer), key=lambda r: by_reducer[r]
        ),
        "concentration": peak / total if total else 0.0,
        "map_tasks": [map_tasks[task] for task in sorted(map_tasks)],
        "alerts": index.alerts_for(job, cuboid=cuboid),
    }


def format_explain_markdown(result: Dict) -> str:
    """Render an explain result as a small markdown report."""
    lines: List[str] = []
    if result["query"] == "explain-reducer":
        lines.append(
            f"## Reducer {result['reducer']} of `{result['job']}` "
            f"(execution {result['execution']}, run `{result['run_id']}`)"
        )
        lines.append("")
        lines.append(
            f"Received **{result['records']} records** "
            f"({result['bytes']} bytes) — "
            f"{100 * result['share']:.1f}% of the job's "
            f"{result['job_records']} shuffled records across "
            f"{result['num_reducers']} reducers."
        )
        if result["salvaged"]:
            lines.append(
                "Partition salvaged from a checkpoint: its reduce task ran "
                "in an earlier execution."
            )
        lines.append("")
        lines.append("| cuboid | records |")
        lines.append("|---|---|")
        for mask, count in result["by_cuboid"].items():
            lines.append(f"| {int(mask):#x} | {count} |")
        lines.append("")
        lines.append("| map task | input split | records | bytes |")
        lines.append("|---|---|---|---|")
        for entry in result["map_tasks"]:
            lines.append(
                f"| {entry['map_task']} | {entry['input_split']} "
                f"| {entry['records']} | {entry['bytes']} |"
            )
    else:
        lines.append(
            f"## Cuboid {result['cuboid']:#x} in `{result['job']}` "
            f"(execution {result['execution']}, run `{result['run_id']}`)"
        )
        lines.append("")
        lines.append(
            f"Shuffled **{result['records']} records**; hottest reducer "
            f"{result['hottest_reducer']} holds "
            f"{100 * result['concentration']:.1f}% of them."
        )
        lines.append("")
        lines.append("| reducer | records |")
        lines.append("|---|---|")
        for reducer, count in result["by_reducer"].items():
            lines.append(f"| {reducer} | {count} |")
        lines.append("")
        lines.append("| map task | input split | records |")
        lines.append("|---|---|---|")
        for entry in result["map_tasks"]:
            lines.append(
                f"| {entry['map_task']} | {entry['input_split']} "
                f"| {entry['records']} |"
            )
    if result["alerts"]:
        lines.append("")
        lines.append("### Watchdog alerts")
        lines.append("")
        for alert in result["alerts"]:
            detail = ", ".join(
                f"{k}={alert[k]}"
                for k in ("reducer", "cuboid", "observed", "bound", "ratio",
                          "phase", "task", "seconds")
                if k in alert
            )
            lines.append(f"- `{alert['kind']}` at t={alert['at']}: {detail}")
    return "\n".join(lines) + "\n"
