"""Job views assembled from the trace — the shared front half of the
watchdog and the explain index.

Everything the two need about one job execution is in the records the
engine emits before that job's ``job`` span: the winning ``attempt``
spans (task rows: records in/out, chain seconds), the ``debug``-level
``flow`` events (one per ``(map task, reducer)`` edge, with the edge's
per-cuboid record counts) and, for a round re-run after a node loss, the
``round_resume`` event naming the partitions salvaged from a checkpoint.
:class:`JobAssembler` buffers those and closes them into one plain dict
when the ``job`` span arrives.  Re-executed rounds become successive
*executions* of the same job name.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class JobAssembler:
    """Fold each job's task and flow records into one view per job span."""

    def __init__(self):
        self._executions: Dict[str, int] = {}
        self._salvaged: Dict[str, List[int]] = {}
        self._open()

    def _open(self) -> None:
        self._flows: List[Dict] = []
        # phase -> task -> [chain start, winning attempt span or None]
        self._chains: Dict[str, Dict[int, List]] = {"map": {}, "reduce": {}}

    def write(self, record: Dict) -> Optional[Dict]:
        """Consume one record; returns the job view a ``job`` span closes."""
        kind = record.get("kind")
        if kind == "attempt":
            chain = self._chains[record["phase"]].setdefault(
                record["task"], [record["t0"], None]
            )
            if record["status"] != "killed":
                chain[1] = record
        elif kind == "flow":
            fields = record["fields"]
            self._flows.append({
                "map_task": record["task"],
                "reducer": fields["reducer"],
                "records": fields["records"],
                "bytes": fields["bytes"],
                "cuboids": fields["cuboids"],
            })
        elif kind == "round_resume":
            self._salvaged[record.get("job")] = list(
                record["fields"].get("salvaged_partitions", ())
            )
        elif kind == "job":
            return self._close(record)
        return None

    def _close(self, span: Dict) -> Dict:
        name, counters = span["name"], span["counters"]
        execution = self._executions.get(name, 0)
        self._executions[name] = execution + 1
        view = {
            "job": name,
            "execution": execution,
            "t0": span["t0"],
            "t1": span["t1"],
            "aborted": span["status"] == "aborted",
            "num_reducers": counters.get("num_reducers", 0),
            "map_tasks": counters.get("map_tasks", 0),
            "memory_records": counters.get("memory_records", 0),
            "completed_reducers": self._salvaged.pop(name, []),
            "maps": self._task_rows("map"),
            "flows": self._flows,
            "reduces": self._task_rows("reduce"),
        }
        self._open()
        return view

    def _task_rows(self, phase: str) -> List[Dict]:
        """Winning attempts in task order; ``seconds`` spans the chain."""
        rows = []
        for task, (started, winner) in sorted(self._chains[phase].items()):
            if winner is not None:
                rows.append({
                    "task": task,
                    "records_in": winner["counters"].get("records_in", 0),
                    "records_out": winner["counters"].get("records_out", 0),
                    "seconds": round(winner["t1"] - started, 9),
                })
        return rows
