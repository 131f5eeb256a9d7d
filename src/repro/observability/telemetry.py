"""Runtime telemetry: a metrics registry derived from the trace.

This module is the quantitative sibling of :mod:`repro.observability.tracer`:
where the trace records *what happened* (typed spans and events), the
telemetry view says *how much of everything there was* — shuffle bytes
per round, reducer load, checkpoint volume, node liveness — as named
metric series that can be diffed and exported.

Two pieces:

* :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with Prometheus-style labels and fixed
  bucket schemas, renderable as Prometheus text exposition
  (:meth:`MetricsRegistry.prometheus_text`).
* :class:`Telemetry` — a trace sink: ``write(record)`` folds ``run`` /
  ``job`` / ``phase`` / ``attempt`` spans and ``shuffle`` / ``node_lost``
  / ``checkpoint_write`` / ``round_resume`` / ``sketch`` / alert events
  into the registry.  The same code runs live on a tracer and offline
  over a trace file (``python -m repro metrics-export TRACE`` is
  :func:`~repro.observability.tracer.replay` into a fresh
  :class:`Telemetry`).

The exposition is valid by construction: metric names are checked when
an instrument is registered, label values are escaped, and histogram
buckets are rendered cumulatively with ``+Inf`` equal to ``_count``.

**Determinism.**  Every series is a pure function of the trace records,
and trace files are byte-identical between serial and parallel backends,
so the registry and its exposition are too.  Host facts (RSS, wall seconds,
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
    """A trace sink building the metrics registry.

    Per-job facts arrive in several records (the map ``phase`` span, the
    ``shuffle`` event, the winning reduce ``attempt`` spans, ...); they
    are held until the job's ``job`` span closes the round, then counted
    once.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self._phase_seconds: Dict[str, float] = {}
        self._reduce_loads: Dict[int, int] = {}
        self._sketch_bytes: Optional[int] = None

    def prometheus_text(self) -> str:
        return self.registry.prometheus_text()

    # -- the derivation ------------------------------------------------

    def write(self, record: Dict) -> None:
        """Fold one trace record into the registry."""
        handler = getattr(self, "_on_" + str(record.get("kind")), None)
        if handler is not None:
            handler(record)
        elif record.get("kind") in ALERT_KINDS:
            self.registry.counter(
                "repro_watchdog_alerts_total",
                "Watchdog alerts emitted, by kind",
            ).inc(labels={"kind": record["kind"]})

    def _on_phase(self, span: Dict) -> None:
        self._phase_seconds[span["phase"]] = span["counters"].get(
            "seconds", span["t1"] - span["t0"]
        )

    def _on_shuffle(self, event: Dict) -> None:
        self._phase_seconds["shuffle"] = event["fields"].get("seconds", 0.0)

    def _on_attempt(self, span: Dict) -> None:
        if span["phase"] == "reduce" and span["status"] != "killed":
            self._reduce_loads[span["task"]] = span["counters"].get(
                "records_in", 0
            )

    def _on_job(self, span: Dict) -> None:
        counters, registry = span["counters"], self.registry
        labels = {"job": span["name"]}
        registry.counter(
            "repro_jobs_total", "MapReduce rounds executed"
        ).inc(labels=labels)
        registry.counter(
            "repro_shuffle_bytes_total", "Bytes shuffled from map to reduce"
        ).inc(counters.get("map_output_bytes", 0), labels=labels)
        registry.counter(
            "repro_shuffle_records_total", "Pairs shuffled from map to reduce"
        ).inc(counters.get("map_output_records", 0), labels=labels)
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
        if self._reduce_loads:
            reduce_hist = registry.histogram(
                "repro_reduce_task_records", "Input records per reduce task"
            )
            for _task, records in sorted(self._reduce_loads.items()):
                reduce_hist.observe(records, labels=labels)
        self._phase_seconds, self._reduce_loads = {}, {}

    def _on_node_lost(self, event: Dict) -> None:
        self.registry.counter(
            "repro_nodes_lost_total", "Failure domains lost to node kills"
        ).inc()
        self._node_up(event["fields"].get("node"), 0)

    def _node_up(self, node, up: int) -> None:
        self.registry.gauge(
            "repro_node_up", "Node liveness (1 = serving, 0 = dead)"
        ).set(up, labels={"node": node})

    def _on_round_resume(self, event: Dict) -> None:
        self.registry.counter(
            "repro_round_resumes_total",
            "Rounds resumed from a checkpoint after node loss",
        ).inc()
        for node in event["fields"].get("replaced_nodes", ()):
            # The dead domain is re-provisioned for the rerun.
            self._node_up(node, 1)

    def _on_checkpoint_write(self, event: Dict) -> None:
        self.registry.counter(
            "repro_checkpoint_writes_total", "Rounds checkpointed by the driver"
        ).inc()
        self.registry.counter(
            "repro_checkpoint_bytes_total",
            "Reduce-output bytes persisted as checkpoints",
        ).inc(event["fields"].get("bytes", 0))

    def _on_sketch(self, event: Dict) -> None:
        self._sketch_bytes = event["fields"].get("bytes")

    def _on_run(self, span: Dict) -> None:
        counters = span["counters"]
        labels = {"run": span["name"]}
        self.registry.counter(
            "repro_runs_total", "Cube algorithm executions"
        ).inc(labels=labels)
        self.registry.gauge(
            "repro_cube_groups", "Output cube groups of the last execution"
        ).set(counters.get("output_groups", 0), labels=labels)
        if self._sketch_bytes is not None:
            self.registry.gauge(
                "repro_sketch_bytes", "Serialized SP-Sketch size"
            ).set(self._sketch_bytes, labels=labels)
            self._sketch_bytes = None
