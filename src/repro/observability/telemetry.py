"""Runtime telemetry: metrics registry, sampling collector, exporters.

This module is the quantitative sibling of :mod:`repro.observability.tracer`:
where the tracer records *what happened* (typed spans and events), the
telemetry layer records *how much of everything there was and when* —
shuffle bytes per round, reducer load, checkpoint volume, node liveness,
driver RSS — as named metric series that can be charted, diffed, and
exported.

Three pieces:

* :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with Prometheus-style labels and fixed
  bucket schemas, serializable to/from plain dicts and renderable as
  Prometheus text exposition (:meth:`MetricsRegistry.prometheus_text`).
* :class:`Telemetry` — the sampling collector threaded through the engine:
  it owns a registry, a logical clock mirroring the tracer's simulated
  clock, and a timeline of ``(series, t, value, labels, source)`` samples
  taken on a logical-clock cadence.  :meth:`Telemetry.write_timeline`
  writes the JSONL artifact that :class:`~repro.observability.timeline.\
TimelineAnalysis` and ``python -m repro metrics-export`` consume.
* :func:`check_prometheus_text` — a hand-rolled line-format checker for
  the exposition output (no third-party dependencies), used by CI.

**Determinism.**  Samples carry a ``source`` tag.  ``"sim"`` samples are
functions of the simulated run only (shuffle bytes, phase seconds,
checkpoint bytes, node liveness, group counts) and are bit-identical
between serial and parallel backends on their logical-time axis — this
is tested.  ``"host"`` samples observe the real machine (driver RSS,
wall seconds, executor queue depth) and are
excluded from identity comparisons, exactly like the ``executor`` and
wall-clock fields of :class:`~repro.mapreduce.metrics.JobMetrics`.

**Overhead.**  The default everywhere is the :data:`NULL_TELEMETRY`
singleton whose ``enabled`` flag is False; hot paths guard every
instrumentation point with a single attribute check, so a telemetry-off
run does no per-sample work at all.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Optional, Tuple

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

#: Sample source tags (see module docstring).
SOURCE_SIM = "sim"
SOURCE_HOST = "host"
SOURCES = (SOURCE_SIM, SOURCE_HOST)

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


class Gauge:
    """Point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._values: Dict[_LabelsKey, float] = {}

    def set(self, value: float,
            labels: Optional[Dict[str, str]] = None) -> None:
        self._values[_labels_key(labels)] = float(value)

    def inc(self, amount: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
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

    def to_dict(self) -> Dict:
        metrics = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {"name": name, "type": metric.kind, "help": metric.help,
                     "series": metric.series()}
            if metric.kind == "histogram":
                entry["buckets"] = list(metric.buckets)
            metrics.append(entry)
        return {"metrics": metrics}

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        registry = cls()
        for entry in data.get("metrics", []):
            kind, name = entry["type"], entry["name"]
            help_text = entry.get("help", "")
            if kind == "counter":
                counter = registry.counter(name, help_text)
                for point in entry.get("series", []):
                    counter.inc(point["value"], labels=point.get("labels"))
            elif kind == "gauge":
                gauge = registry.gauge(name, help_text)
                for point in entry.get("series", []):
                    gauge.set(point["value"], labels=point.get("labels"))
            elif kind == "histogram":
                hist = registry.histogram(
                    name, help_text,
                    buckets=entry.get("buckets", DEFAULT_BUCKETS),
                )
                for point in entry.get("series", []):
                    key = _labels_key(point.get("labels"))
                    hist._counts[key] = [int(c) for c in point["counts"]]
                    hist._sums[key] = float(point["sum"])
                    hist._totals[key] = int(point["count"])
            else:
                raise ValueError(f"unknown metric type {kind!r}")
        return registry


class _NullInstrument:
    """Accepts every instrument operation and records nothing."""

    def inc(self, amount: float = 1.0, labels=None) -> None:
        pass

    def set(self, value: float, labels=None) -> None:
        pass

    def observe(self, value: float, labels=None) -> None:
        pass

    def value(self, labels=None) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """The zero-overhead default: every operation is a no-op.

    Mirrors :class:`~repro.observability.tracer.NullTracer` — ``enabled``
    is False so instrumentation points skip even building a sample with
    one attribute check.  The instrument accessors hand back a shared
    no-op instrument rather than ``None``, so code that skips the
    ``enabled`` guard still cannot crash on the null object.
    """

    enabled = False
    clock = 0.0

    def sample(self, series: str, value: float, labels=None, at=None,
               source: str = SOURCE_SIM) -> None:
        pass

    def counter(self, name: str, help: str = ""):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = ""):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def advance(self, seconds: float) -> None:
        pass

    def write_timeline(self, path) -> None:
        pass

    def prometheus_text(self) -> str:
        return ""


#: Shared no-op telemetry; safe because it carries no state.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Sampling collector: a registry plus a logical-clock timeline.

    Parameters
    ----------
    cadence:
        Minimum logical-clock spacing, in simulated seconds, between two
        samples of the same ``(series, labels)`` pair.  0 keeps every
        sample.  Downsampling is deterministic — it depends only on the
        logical timestamps, never on wall time — so a cadence-limited
        serial run and parallel run drop exactly the same samples.
    run_id:
        Free-form identifier stamped into the timeline header.
    """

    enabled = True

    def __init__(self, cadence: float = 0.0, run_id: str = ""):
        if cadence < 0:
            raise ValueError("cadence must be >= 0")
        self.cadence = float(cadence)
        self.run_id = run_id
        self.registry = MetricsRegistry()
        #: Cumulative simulated seconds, advanced in lockstep with the
        #: tracer clock by :func:`repro.mapreduce.engine.run_job`.
        self.clock = 0.0
        self.samples: List[Dict] = []
        self._last_sample_at: Dict[Tuple[str, _LabelsKey], float] = {}
        self._dropped = 0

    # -- collection ----------------------------------------------------

    def sample(self, series: str, value: float,
               labels: Optional[Dict[str, str]] = None,
               at: Optional[float] = None,
               source: str = SOURCE_SIM) -> None:
        """Record one timeline point for ``series`` at logical time ``at``
        (default: the current logical clock), subject to the cadence."""
        if source not in SOURCES:
            raise ValueError(f"unknown sample source {source!r}")
        t = self.clock if at is None else float(at)
        key = (series, _labels_key(labels))
        if self.cadence > 0.0:
            last = self._last_sample_at.get(key)
            if last is not None and (t - last) < self.cadence:
                self._dropped += 1
                return
        self._last_sample_at[key] = t
        record = {"type": "sample", "series": series, "t": round(t, 9),
                  "value": value, "source": source}
        if labels:
            record["labels"] = {str(k): str(v) for k, v in labels.items()}
        self.samples.append(record)

    def counter(self, name: str, help: str = "") -> Counter:
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.registry.gauge(name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self.registry.histogram(name, help, buckets)

    def advance(self, seconds: float) -> None:
        """Advance the logical clock (one job/round finished)."""
        self.clock += seconds

    @property
    def dropped_samples(self) -> int:
        """Samples suppressed by the cadence (for overhead accounting)."""
        return self._dropped

    # -- export --------------------------------------------------------

    def prometheus_text(self) -> str:
        return self.registry.prometheus_text()

    def timeline_records(self) -> List[Dict]:
        """The full JSONL payload: header, samples, final registry dump."""
        header = {
            "type": "meta", "version": 1, "run_id": self.run_id,
            "cadence": self.cadence, "clock": round(self.clock, 9),
            "num_samples": len(self.samples), "dropped": self._dropped,
        }
        registry_record = {"type": "registry",
                           "registry": self.registry.to_dict()}
        return [header] + self.samples + [registry_record]

    def write_timeline(self, path) -> None:
        """Write the timeline artifact (JSONL; see module docstring)."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.timeline_records():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")


def driver_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes, or ``None`` when
    the platform lacks the :mod:`resource` module.  A "host"-source
    quantity: real memory, excluded from determinism comparisons."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    import sys

    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def telemetry_of(cluster) -> "Telemetry":
    """The cluster's telemetry, defaulting to :data:`NULL_TELEMETRY`.

    Mirrors the ``cluster.tracer or NULL_TRACER`` idiom used by the
    engine; tolerates configs created before the field existed.
    """
    return getattr(cluster, "telemetry", None) or NULL_TELEMETRY


def emit_run_telemetry(cluster, metrics, dfs=None) -> None:
    """Record one algorithm execution's run-level metric series.

    The engine-level instrumentation (:mod:`repro.mapreduce.engine`)
    captures per-round quantities; this captures what only exists at run
    end — output cube group counts, sketch bytes, DFS volume, driver RSS.
    Called by every cube engine at the end of ``compute``, right next to
    :func:`~repro.observability.tracer.emit_run_span`; a no-op when the
    cluster carries no telemetry.
    """
    telemetry = telemetry_of(cluster)
    if not telemetry.enabled:
        return
    name = metrics.algorithm
    labels = {"run": name}
    telemetry.counter(
        "repro_runs_total", "Cube algorithm executions"
    ).inc(labels=labels)
    telemetry.gauge(
        "repro_cube_groups", "Output cube groups of the last execution"
    ).set(metrics.output_groups, labels=labels)
    telemetry.sample("cube_groups", metrics.output_groups, labels=labels)
    sketch_bytes = metrics.extras.get("sketch_bytes")
    if sketch_bytes is not None:
        telemetry.gauge(
            "repro_sketch_bytes", "Serialized SP-Sketch size"
        ).set(sketch_bytes, labels=labels)
        telemetry.sample("sketch_bytes", sketch_bytes, labels=labels)
    if dfs is not None:
        # Driver-side DFS accounting is deterministic (writes happen in
        # the merge order, read-drop coins are seeded), hence "sim".
        telemetry.sample("dfs_writes", dfs.writes, labels=labels)
        telemetry.sample("dfs_records_written", dfs.records_written,
                         labels=labels)
        if dfs.read_retries:
            telemetry.sample("dfs_read_retries", dfs.read_retries,
                             labels=labels)
        telemetry.gauge(
            "repro_dfs_files", "Files in the simulated DFS"
        ).set(len(dfs), labels=labels)
    rss = driver_rss_bytes()
    if rss is not None:
        telemetry.gauge(
            "repro_driver_rss_bytes", "Peak driver resident-set size"
        ).set(rss)
        telemetry.sample("driver_rss_bytes", rss, source=SOURCE_HOST)


# ---------------------------------------------------------------------------
# Prometheus text-format checker (hand-rolled; used by CI and tests).
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)


def _parse_label_block(block: str) -> Optional[List[Tuple[str, str]]]:
    """Split ``{a="x",b="y"}`` into pairs; None when malformed."""
    inner = block[1:-1].strip()
    if not inner:
        return []
    pairs = []
    # Split on commas outside quotes.
    parts, depth, current = [], False, []
    for ch in inner:
        if ch == '"' and (not current or current[-1] != "\\"):
            depth = not depth
        if ch == "," and not depth:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    for part in parts:
        part = part.strip()
        if not _LABEL_RE.match(part):
            return None
        name, _, value = part.partition("=")
        pairs.append((name, value[1:-1]))
    return pairs


def _parse_value(text: str) -> Optional[float]:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def check_prometheus_text(text: str) -> List[str]:
    """Validate Prometheus text exposition; return a list of problems.

    Checks line syntax (metric names, label syntax, numeric values),
    HELP/TYPE comment structure, duplicate samples, histogram structure
    (``le`` on ``_bucket`` lines, cumulative monotonicity, a ``+Inf``
    bucket matching ``_count``), and that every sample belongs to a
    TYPE-declared family.  An empty list means the text is valid.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_samples: Dict[Tuple[str, _LabelsKey], float] = {}
    # histogram family -> base labels key -> list of (le, value)
    buckets: Dict[str, Dict[_LabelsKey, List[Tuple[float, float]]]] = {}
    counts: Dict[str, Dict[_LabelsKey, float]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 3 or fields[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            if not _METRIC_NAME_RE.match(fields[2]):
                problems.append(
                    f"line {lineno}: invalid metric name {fields[2]!r}"
                )
                continue
            if fields[1] == "TYPE":
                if len(fields) != 4 or fields[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(
                        f"line {lineno}: invalid TYPE line: {line!r}"
                    )
                    continue
                if fields[2] in types:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {fields[2]}"
                    )
                types[fields[2]] = fields[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        label_block = match.group("labels")
        pairs = _parse_label_block(label_block) if label_block else []
        if pairs is None:
            problems.append(f"line {lineno}: malformed labels: {line!r}")
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}"
            )
            continue
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in types:
            problems.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        key = (name, tuple(sorted(pairs)))
        if key in seen_samples:
            problems.append(f"line {lineno}: duplicate sample {line!r}")
        seen_samples[key] = value
        if types.get(family) == "histogram":
            base_pairs = tuple(sorted(p for p in pairs if p[0] != "le"))
            if name == family + "_bucket":
                le = dict(pairs).get("le")
                if le is None:
                    problems.append(
                        f"line {lineno}: histogram bucket missing le label"
                    )
                    continue
                le_value = _parse_value(le)
                if le_value is None:
                    problems.append(
                        f"line {lineno}: non-numeric le value {le!r}"
                    )
                    continue
                buckets.setdefault(family, {}).setdefault(
                    base_pairs, []
                ).append((le_value, value))
            elif name == family + "_count":
                counts.setdefault(family, {})[base_pairs] = value

    for family, by_labels in buckets.items():
        for base_pairs, points in by_labels.items():
            points = sorted(points)
            values = [v for _, v in points]
            if values != sorted(values):
                problems.append(
                    f"{family}: bucket counts not cumulative for labels "
                    f"{dict(base_pairs)}"
                )
            les = [le for le, _ in points]
            if math.inf not in les:
                problems.append(
                    f"{family}: missing +Inf bucket for labels "
                    f"{dict(base_pairs)}"
                )
            else:
                inf_value = dict(points)[math.inf]
                total = counts.get(family, {}).get(base_pairs)
                if total is not None and total != inf_value:
                    problems.append(
                        f"{family}: +Inf bucket ({inf_value}) != _count "
                        f"({total}) for labels {dict(base_pairs)}"
                    )
    return problems
