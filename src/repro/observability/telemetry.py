"""Runtime telemetry: a metrics registry derived from the trace.

This module is the quantitative sibling of :mod:`repro.observability.tracer`:
where the trace records *what happened* (typed spans and events), the
telemetry view says *how much of everything there was and when* —
shuffle bytes per round, reducer load, checkpoint volume, node liveness —
as named metric series that can be charted, diffed, and exported.

Two pieces:

* :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with Prometheus-style labels and fixed
  bucket schemas, renderable as Prometheus text exposition
  (:meth:`MetricsRegistry.prometheus_text`).
* :class:`Telemetry` — a trace sink: ``write(record)`` folds ``run`` /
  ``job`` / ``phase`` / ``attempt`` spans and ``shuffle`` / ``node_lost``
  / ``checkpoint_write`` / ``round_resume`` / ``sketch`` / alert events
  into the registry and into a timeline of ``(series, t, value, labels)``
  samples on the trace's simulated clock.  The same code runs live on a
  tracer and offline over a trace file (``python -m repro
  metrics-export TRACE`` is :func:`~repro.observability.tracer.replay`
  into a fresh :class:`Telemetry`).

The exposition is valid by construction: metric names are checked when
an instrument is registered, label values are escaped, and histogram
buckets are rendered cumulatively with ``+Inf`` equal to ``_count``.

**Determinism.**  Every series is a pure function of the trace records,
and trace files are byte-identical between serial and parallel backends,
so the registry and the samples are too.  Host facts (RSS, wall seconds,
executor shape) are deliberately absent: simulated and host seconds are
never mixed in one artifact — ``benchmarks/suite`` is the host ledger.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Tuple

from .schema import ALERT_KINDS

#: Fixed default bucket schema (powers of four, records/bytes-friendly).
#: Fixed schemas — not per-run adaptive ones — keep histograms mergeable
#: and comparable across runs.
DEFAULT_BUCKETS = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
    65536.0, 262144.0, 1048576.0, 4194304.0,
)

#: Fixed bucket schema for simulated-seconds histograms.
SECONDS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Dict[str, str]]) -> _LabelsKey:
    """Canonical hashable form of a label set (sorted, stringified)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render without the trailing .0."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelsKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class Counter:
    """Monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._values: Dict[_LabelsKey, float] = {}

    def inc(self, amount: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _labels_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self._values.get(_labels_key(labels), 0.0)

    def series(self) -> List[Dict]:
        return [
            {"labels": dict(key), "value": self._values[key]}
            for key in sorted(self._values)
        ]

    def exposition_lines(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(key)} "
            f"{_format_value(self._values[key])}"
            for key in sorted(self._values)
        ]


class Gauge(Counter):
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float,
            labels: Optional[Dict[str, str]] = None) -> None:
        self._values[_labels_key(labels)] = float(value)

    def inc(self, amount: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        self.set(self.value(labels) + amount, labels)


class Histogram:
    """Distribution over a fixed bucket schema (Prometheus semantics).

    Buckets are upper bounds; exposition renders them cumulatively with
    the implicit ``+Inf`` bucket equal to ``_count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        # Per labels key: [per-bucket counts..., overflow], sum, count.
        self._counts: Dict[_LabelsKey, List[int]] = {}
        self._sums: Dict[_LabelsKey, float] = {}
        self._totals: Dict[_LabelsKey, int] = {}

    def observe(self, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        key = _labels_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, labels: Optional[Dict[str, str]] = None) -> int:
        return self._totals.get(_labels_key(labels), 0)

    def sum(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self._sums.get(_labels_key(labels), 0.0)

    def cumulative_counts(
        self, labels: Optional[Dict[str, str]] = None
    ) -> List[int]:
        """Cumulative per-bucket counts including the ``+Inf`` bucket."""
        counts = self._counts.get(_labels_key(labels))
        if counts is None:
            return [0] * (len(self.buckets) + 1)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def series(self) -> List[Dict]:
        return [
            {
                "labels": dict(key),
                "counts": list(self._counts[key]),
                "sum": self._sums[key],
                "count": self._totals[key],
            }
            for key in sorted(self._counts)
        ]

    def exposition_lines(self) -> List[str]:
        lines = []
        for key in sorted(self._counts):
            running = 0
            for bound, c in zip(self.buckets, self._counts[key]):
                running += c
                le = _render_labels(key, f'le="{_format_value(bound)}"')
                lines.append(f"{self.name}_bucket{le} {running}")
            running += self._counts[key][-1]
            inf = _render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{inf} {running}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(self._sums[key])}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} "
                         f"{self._totals[key]}")
        return lines


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricsRegistry:
    """Named instruments, each created once and looked up thereafter."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _register(self, instrument):
        if not _METRIC_NAME_RE.match(instrument.name):
            raise ValueError(f"invalid metric name {instrument.name!r}")
        existing = self._metrics.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(
                    f"metric {instrument.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._metrics[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def prometheus_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
        out = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            help_text = (metric.help or name).replace("\\", "\\\\")
            help_text = help_text.replace("\n", "\\n")
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {metric.kind}")
            out.extend(metric.exposition_lines())
        return "\n".join(out) + "\n" if out else ""


class Telemetry:
    """A trace sink building the metrics registry and its sample timeline.

    Per-job facts arrive in several records (the map ``phase`` span, the
    ``shuffle`` event, the winning reduce ``attempt`` spans, ...); they
    are held until the job's ``job`` span closes the round, then counted
    once.  ``samples`` is the timeline: one dict per point with
    ``series`` / ``t`` / ``value`` and optional string ``labels``.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.samples: List[Dict] = []
        self._phase_seconds: Dict[str, float] = {}
        self._reduce_loads: Dict[int, int] = {}
        self._sketch_bytes: Optional[int] = None

    def sample(self, series: str, value: float, at: float,
               labels: Optional[Dict[str, str]] = None) -> None:
        """Record one timeline point for ``series`` at simulated ``at``."""
        record = {"series": series, "t": round(at, 9), "value": value}
        if labels:
            record["labels"] = {str(k): str(v) for k, v in labels.items()}
        self.samples.append(record)

    def prometheus_text(self) -> str:
        return self.registry.prometheus_text()

    # -- the derivation ------------------------------------------------

    def write(self, record: Dict) -> None:
        """Fold one trace record into the registry and the timeline."""
        handler = getattr(self, "_on_" + str(record.get("kind")), None)
        if handler is not None:
            handler(record)
        elif record.get("kind") in ALERT_KINDS:
            self.registry.counter(
                "repro_watchdog_alerts_total",
                "Watchdog alerts emitted, by kind",
            ).inc(labels={"kind": record["kind"]})

    def _on_phase(self, span: Dict) -> None:
        seconds = span["counters"].get("seconds", span["t1"] - span["t0"])
        self._phase_seconds[span["phase"]] = seconds
        self.sample("phase_seconds", seconds, span["t1"],
                    {"job": span["job"], "phase": span["phase"]})

    def _on_shuffle(self, event: Dict) -> None:
        seconds = event["fields"].get("seconds", 0.0)
        self._phase_seconds["shuffle"] = seconds
        self.sample("phase_seconds", seconds, event["at"] + seconds,
                    {"job": event.get("job"), "phase": "shuffle"})

    def _on_attempt(self, span: Dict) -> None:
        if span["phase"] == "reduce" and span["status"] != "killed":
            self._reduce_loads[span["task"]] = span["counters"].get(
                "records_in", 0
            )

    def _on_job(self, span: Dict) -> None:
        name, counters, registry = span["name"], span["counters"], self.registry
        labels = {"job": name}
        registry.counter(
            "repro_jobs_total", "MapReduce rounds executed"
        ).inc(labels=labels)
        shuffle_bytes = counters.get("map_output_bytes", 0)
        shuffle_records = counters.get("map_output_records", 0)
        registry.counter(
            "repro_shuffle_bytes_total", "Bytes shuffled from map to reduce"
        ).inc(shuffle_bytes, labels=labels)
        registry.counter(
            "repro_shuffle_records_total", "Pairs shuffled from map to reduce"
        ).inc(shuffle_records, labels=labels)
        registry.counter(
            "repro_task_attempts_total", "Task attempts including retries"
        ).inc(counters.get("attempts", 0), labels=labels)
        if counters.get("killed_tasks"):
            registry.counter(
                "repro_tasks_killed_total",
                "Attempts killed by injected faults",
            ).inc(counters["killed_tasks"], labels=labels)
        phase_hist = registry.histogram(
            "repro_phase_seconds", "Simulated seconds per phase",
            buckets=SECONDS_BUCKETS,
        )
        for phase in ("map", "shuffle", "reduce"):
            phase_hist.observe(
                self._phase_seconds.get(phase, 0.0), labels={"phase": phase}
            )
        t_map = span["t0"] + self._phase_seconds.get("map", 0.0)
        self.sample("shuffle_bytes", shuffle_bytes, t_map, labels)
        self.sample("shuffle_records", shuffle_records, t_map, labels)
        if self._reduce_loads:
            reduce_hist = registry.histogram(
                "repro_reduce_task_records", "Input records per reduce task"
            )
            for task, records in sorted(self._reduce_loads.items()):
                reduce_hist.observe(records, labels=labels)
                self.sample("reducer_records", records, span["t1"],
                            {"job": name, "task": task})
        self._phase_seconds, self._reduce_loads = {}, {}

    def _on_node_lost(self, event: Dict) -> None:
        node = event["fields"].get("node")
        self.registry.counter(
            "repro_nodes_lost_total", "Failure domains lost to node kills"
        ).inc()
        self._node_up(node, 0, event["at"])

    def _node_up(self, node, up: int, at: float) -> None:
        self.registry.gauge(
            "repro_node_up", "Node liveness (1 = serving, 0 = dead)"
        ).set(up, labels={"node": node})
        self.sample("node_up", up, at, {"node": node})

    def _on_round_resume(self, event: Dict) -> None:
        self.registry.counter(
            "repro_round_resumes_total",
            "Rounds resumed from a checkpoint after node loss",
        ).inc()
        for node in event["fields"].get("replaced_nodes", ()):
            # The dead domain is re-provisioned for the rerun.
            self._node_up(node, 1, event["at"])

    def _on_checkpoint_write(self, event: Dict) -> None:
        fields = event["fields"]
        self.registry.counter(
            "repro_checkpoint_writes_total", "Rounds checkpointed to the DFS"
        ).inc()
        self.registry.counter(
            "repro_checkpoint_bytes_total",
            "Reduce-output bytes persisted as checkpoints",
        ).inc(fields.get("bytes", 0))
        self.sample("checkpoint_bytes", fields.get("bytes", 0), event["at"],
                    {"round": fields.get("round")})

    def _on_sketch(self, event: Dict) -> None:
        self._sketch_bytes = event["fields"].get("bytes")

    def _on_run(self, span: Dict) -> None:
        counters, at = span["counters"], span["t1"]
        labels = {"run": span["name"]}
        self.registry.counter(
            "repro_runs_total", "Cube algorithm executions"
        ).inc(labels=labels)
        groups = counters.get("output_groups", 0)
        self.registry.gauge(
            "repro_cube_groups", "Output cube groups of the last execution"
        ).set(groups, labels=labels)
        self.sample("cube_groups", groups, at, labels)
        if self._sketch_bytes is not None:
            self.registry.gauge(
                "repro_sketch_bytes", "Serialized SP-Sketch size"
            ).set(self._sketch_bytes, labels=labels)
            self.sample("sketch_bytes", self._sketch_bytes, at, labels)
            self._sketch_bytes = None
        if "dfs_files" in counters:
            self.sample("dfs_writes", counters["dfs_writes"], at, labels)
            self.sample("dfs_records_written",
                        counters["dfs_records_written"], at, labels)
            if counters["dfs_read_retries"]:
                self.sample("dfs_read_retries",
                            counters["dfs_read_retries"], at, labels)
            self.registry.gauge(
                "repro_dfs_files", "Files in the simulated DFS"
            ).set(counters["dfs_files"], labels=labels)
