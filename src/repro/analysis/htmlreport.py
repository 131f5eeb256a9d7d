"""The unified HTML run report: one self-contained page per run.

``python -m repro report`` stitches the run's observability artifacts —
the structured trace (read once; its Trace, Telemetry and "Lineage &
alerts" sections are three derivations of the same records), the doctor
audit (:mod:`repro.observability.diagnostics`), a ``benchmarks/suite``
run file and ``BENCH_recovery.json`` — into a single HTML document with
inline CSS and inline SVG charts (:mod:`repro.analysis.charts`).  No
JavaScript, no external assets, no network: the file opens identically
from a CI artifact store, an email attachment, or ``file://``.

Every section is optional.  A missing artifact renders a one-line
"not provided" note instead of being silently absent, so a report built
from partial inputs is visibly partial.
"""

from __future__ import annotations

import html
import json
import statistics
from typing import Dict, List, Optional

from ..observability import (
    LineageIndex,
    Telemetry,
    TimelineAnalysis,
    TraceAnalysis,
    explain_reducer,
    load_trace,
    replay,
)
from .charts import PALETTE, svg_bar_chart, svg_line_chart, svg_span_timeline

_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 60em;
       color: #1f2937; line-height: 1.45; }
h1 { border-bottom: 2px solid #2563eb; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; border-bottom: 1px solid #d1d5db; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #d1d5db; padding: 0.25em 0.7em;
         text-align: right; }
th { background: #f3f4f6; }
td.name, th.name { text-align: left; }
.ok { color: #16a34a; font-weight: bold; }
.bad { color: #dc2626; font-weight: bold; }
.muted { color: #6b7280; }
pre { background: #f3f4f6; padding: 0.7em; overflow-x: auto; }
svg { margin: 0.6em 0; display: block; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _missing(what: str) -> str:
    return f'<p class="muted">({what} not provided)</p>'


def _load_json(path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _table(headers: List[str], rows: List[List], name_cols: int = 1) -> str:
    parts = ["<table><tr>"]
    for index, header in enumerate(headers):
        cls = ' class="name"' if index < name_cols else ""
        parts.append(f"<th{cls}>{_esc(header)}</th>")
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for index, cell in enumerate(row):
            cls = ' class="name"' if index < name_cols else ""
            parts.append(f"<td{cls}>{cell}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _status_html(ok: bool, good: str = "ok", bad: str = "FAILED") -> str:
    return (
        f'<span class="ok">{good}</span>'
        if ok
        else f'<span class="bad">{bad}</span>'
    )


# -- trace section ------------------------------------------------------------


def _trace_section(records) -> str:
    if records is None:
        return _missing("trace")
    analysis = TraceAnalysis(records)
    summary = analysis.summary_dict()
    parts: List[str] = []

    rows = [
        [
            _esc(run["name"]),
            f"{run['seconds']:.1f}",
            _status_html(run["status"] == "ok", run["status"], run["status"]),
        ]
        for run in summary["runs"]
    ]
    if rows:
        parts.append(_table(["run", "seconds", "status"], rows))

    recovery = summary["recovery"]
    domains = summary["failure_domains"]
    parts.append(
        _table(
            ["attempts", "killed", "spec wins", "recovered",
             "nodes lost", "round resumes", "checkpoints"],
            [[
                recovery["attempts"], recovery["killed"],
                recovery["speculative_wins"], recovery["recovered"],
                domains["node_loss_events"], domains["round_resumes"],
                domains["checkpoints_committed"],
            ]],
            name_cols=0,
        )
    )

    job_rows = [
        [
            _esc(job["name"]),
            f"{job['seconds']:.1f}",
            f"{job['map_output_records']:,}",
            job["attempts"],
            _status_html(job["status"] == "ok", job["status"], job["status"]),
        ]
        for job in summary["jobs"]
    ]
    if job_rows:
        parts.append(
            _table(
                ["job", "seconds", "shuffled pairs", "attempts", "status"],
                job_rows,
            )
        )

    # Job/phase span timeline: each job row, then its phases indented.
    spans = []
    for job_index, job_span in enumerate(analysis.jobs):
        color = PALETTE[job_index % len(PALETTE)]
        spans.append(
            {
                "label": job_span["name"],
                "t0": job_span["t0"],
                "t1": job_span["t1"],
                "color": color,
            }
        )
        for phase_span in analysis.phases:
            if phase_span.get("job") != job_span["name"]:
                continue
            spans.append(
                {
                    "label": f"· {phase_span['phase']}",
                    "t0": phase_span["t0"],
                    "t1": phase_span["t1"],
                    "color": color,
                }
            )
    if spans:
        parts.append(
            svg_span_timeline(spans, "job & phase timeline (simulated time)")
        )

    dominant = summary["dominant_job"]
    loads = summary["reducer_loads"]
    if dominant is not None and loads:
        values = [loads[task] for task in sorted(loads, key=int)]
        mean = sum(values) / len(values)
        parts.append(
            svg_bar_chart(
                [f"r{task}" for task in sorted(loads, key=int)],
                values,
                f"per-reducer delivered records, job {dominant}",
                highlight=mean,
            )
        )

    critical_rows = [
        [
            _esc(entry["phase"]),
            entry["task"],
            entry["attempts"],
            f"{entry['chain_seconds']:.1f}",
            f"{entry['phase_seconds']:.1f}",
            "spec win" if entry["speculative"] else "",
        ]
        for entry in summary["critical_path"]
    ]
    if critical_rows:
        parts.append("<h3>critical path (dominant job)</h3>")
        parts.append(
            _table(
                ["phase", "gating task", "attempts", "chain s",
                 "phase s", "note"],
                critical_rows,
            )
        )
    return "\n".join(parts)


# -- telemetry section --------------------------------------------------------

#: Timeline series charted by default, with their x-grouping label key
#: (None = one curve per label-set, legend from the label values).
_CHARTED_SERIES = (
    ("phase_seconds", "logical seconds per phase"),
    ("shuffle_bytes", "shuffle bytes per job"),
    ("shuffle_records", "shuffled pairs per job"),
    ("checkpoint_bytes", "checkpoint bytes per round"),
)


def _telemetry_section(records) -> str:
    if records is None:
        return _missing("trace")
    telemetry = replay(records, Telemetry())
    analysis = TimelineAnalysis(telemetry.samples)
    parts: List[str] = [
        f"<p>{len(analysis.samples)} samples across "
        f"{len(analysis.series_names())} series on the simulated clock; "
        f"{len(telemetry.registry.names())} metric families.</p>"
    ]

    rows = []
    for name in analysis.series_names():
        stats = analysis.series_summary(name)
        rows.append(
            [
                _esc(name),
                stats["samples"],
                stats["label_sets"],
                _esc(f"{stats['min']:g}"),
                _esc(f"{stats['max']:g}"),
                _esc(f"{stats['last']:g}"),
            ]
        )
    parts.append(
        _table(
            ["series", "samples", "label sets", "min", "max", "last"],
            rows,
        )
    )

    for name, title in _CHARTED_SERIES:
        if name not in analysis.series_names():
            continue
        curves: Dict[str, List] = {}
        for labels in analysis.label_sets(name):
            legend = (
                ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                or name
            )
            curves[legend] = [
                (sample["t"], sample["value"])
                for sample in analysis.series(name, labels)
            ]
        parts.append(
            svg_line_chart(curves, title, x_label="logical seconds")
        )
    return "\n".join(parts)


# -- lineage section ----------------------------------------------------------


def _lineage_section(records) -> str:
    if records is None:
        return _missing("trace")
    index = LineageIndex(records)
    parts: List[str] = [
        f"<p>run <code>{_esc(index.run_id)}</code>: "
        f"{len(index.jobs)} job execution(s), "
        f"{sum(len(job['flows']) for job in index.jobs.values())} flow "
        f"edges, {len(index.alerts)} watchdog alert(s).</p>"
    ]

    job_rows = []
    for (name, execution), job in sorted(index.jobs.items()):
        flows = job["flows"]
        job_rows.append(
            [
                _esc(name),
                execution,
                job["num_reducers"],
                len(flows),
                f"{sum(f['records'] for f in flows):,}",
                f"{sum(f['bytes'] for f in flows):,}",
                _status_html(not job["aborted"], "ok", "aborted"),
            ]
        )
    if job_rows:
        parts.append(
            _table(
                ["job", "execution", "reducers", "flow edges", "records",
                 "bytes", "status"],
                job_rows,
            )
        )

    if index.alerts:
        alert_rows = []
        for alert in index.alerts:
            where = ", ".join(
                f"{key}={alert[key]}"
                for key in ("reducer", "cuboid", "phase", "task")
                if key in alert
            )
            alert_rows.append(
                [
                    _esc(alert["kind"]),
                    _esc(alert["job"]),
                    _esc(where),
                    _esc(alert.get("observed", alert.get("seconds", ""))),
                    _esc(alert.get("ratio", "")),
                    f"{alert['at']:.1f}",
                ]
            )
        parts.append("<h3>watchdog alerts</h3>")
        parts.append(
            _table(
                ["kind", "job", "where", "observed", "ratio", "at (s)"],
                alert_rows,
                name_cols=3,
            )
        )

    # The hottest reducer of the dominant job, pre-explained: the page
    # answers "why is it hot" without a second command.
    try:
        explained = explain_reducer(index)
    except ValueError:
        explained = None
    if explained is not None:
        parts.append(
            f"<h3>hottest reducer: r{explained['reducer']} of "
            f"<code>{_esc(explained['job'])}</code></h3>"
        )
        parts.append(
            f"<p>{explained['records']:,} records "
            f"({100 * explained['share']:.1f}% of the job's shuffle) "
            f"from {len(explained['map_tasks'])} map task(s).</p>"
        )
        cuboid_rows = [
            [f"{int(mask):#x}", f"{count:,}"]
            for mask, count in explained["by_cuboid"].items()
        ]
        if cuboid_rows:
            parts.append(_table(["cuboid", "records"], cuboid_rows))
    return "\n".join(parts)


# -- doctor section -----------------------------------------------------------


def _doctor_section(doctor_path) -> str:
    if doctor_path is None:
        return _missing("doctor report")
    report = _load_json(doctor_path)
    parts: List[str] = [
        "<p>verdict: "
        + _status_html(report.get("healthy", False), "healthy", "PROBLEMS")
        + "</p>"
    ]
    problems = report.get("problems", [])
    if problems:
        parts.append("<ul>")
        for problem in problems:
            parts.append(f'<li class="bad">{_esc(problem)}</li>')
        parts.append("</ul>")
    rows = []
    for dataset in report.get("datasets", []):
        audit = dataset.get("audit", {})
        overall = audit.get("overall", {})
        for engine, stats in sorted(dataset.get("engines", {}).items()):
            rows.append(
                [
                    _esc(dataset.get("name", "?")),
                    _esc(engine),
                    f"{stats.get('total_seconds', 0):.1f}",
                    f"{stats.get('reducer_balance', 0):.2f}",
                    f"{overall.get('f1', 0):.2f}",
                    f"{audit.get('worst_imbalance', 0):.2f}",
                    _status_html(not stats.get("failed", False)),
                ]
            )
    if rows:
        parts.append(
            _table(
                ["dataset", "engine", "sim s", "reducer balance",
                 "sketch F1", "worst imbalance", "status"],
                rows,
                name_cols=2,
            )
        )
    return "\n".join(parts)


# -- bench sections -----------------------------------------------------------


def _suite_runs(path) -> List[Dict]:
    """The well-formed lines of a ``benchmarks/suite/run.py --out`` file
    (one JSON object per run, traced or not)."""
    runs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                run = json.loads(line)
                runs.append({
                    "workload": str(run["workload"]),
                    "failed": int(run["failed"]),
                    "attempted": int(run["attempted"]),
                    "metrics": {
                        name: (float(metric["value"]), str(metric["unit"]))
                        for name, metric in run["metrics"].items()
                    },
                })
            except (ValueError, TypeError, KeyError, AttributeError):
                continue  # a truncated or foreign line is not a run
    return runs


def _perf_section(perf_path) -> str:
    if perf_path is None:
        return _missing("suite JSONL (benchmarks/suite/run.py --out)")
    runs = _suite_runs(perf_path)
    if not runs:
        return f'<p class="muted">(no suite runs in {_esc(perf_path)})</p>'
    workloads = sorted({run["workload"] for run in runs})
    cells: Dict[tuple, List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, (value, unit) in run["metrics"].items():
            cells.setdefault((name, run["workload"]), []).append(value)
            units[name] = unit
    rows = [
        [_esc(name), _esc(unit)]
        + [
            f"{statistics.median(cells[name, workload]):.4g}"
            if (name, workload) in cells
            else ""
            for workload in workloads
        ]
        for name, unit in units.items()
    ]
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    return (
        f"<p>{len(runs)} suite run(s), median per cell; operations: "
        + _status_html(
            failed == 0, f"{attempted} ok", f"{failed} of {attempted} FAILED"
        )
        + "</p>\n"
        + _table(["metric", "unit"] + workloads, rows, name_cols=2)
    )


def _recovery_section(recovery_path) -> str:
    if recovery_path is None:
        return _missing("BENCH_recovery.json")
    bench = _load_json(recovery_path)
    curves: Dict[str, List] = {}
    for point in bench.get("points", []):
        if point.get("failed"):
            continue
        curves.setdefault(point["engine"], []).append(
            (point["pressure"], point["slowdown"])
        )
    for curve in curves.values():
        curve.sort()
    return svg_line_chart(
        curves,
        f"fault-pressure slowdown ({bench.get('rows', '?')} rows; "
        "failed runs dropped)",
        x_label="fault pressure",
        y_label="slowdown vs clean",
    )


# -- assembly -----------------------------------------------------------------


def build_report(
    trace=None,
    doctor=None,
    perf=None,
    recovery=None,
    title: str = "repro run report",
) -> str:
    """Render the unified report; every input path is optional.

    The trace file is read once (:func:`~repro.observability.load_trace`
    — a damaged file raises its one-line, line-numbered error) and feeds
    the three sections derived from it.
    """
    records = None if trace is None else load_trace(trace)
    sections = (
        ("Trace", _trace_section, records),
        ("Telemetry", _telemetry_section, records),
        ("Lineage & alerts", _lineage_section, records),
        ("Doctor audit", _doctor_section, doctor),
        ("Bench: suite", _perf_section, perf),
        ("Bench: recovery cost", _recovery_section, recovery),
    )
    body: List[str] = [f"<h1>{_esc(title)}</h1>"]
    inputs = [
        f"{label}: <code>{_esc(path)}</code>"
        for label, path in (
            ("trace", trace), ("doctor audit", doctor),
            ("bench: suite", perf), ("bench: recovery cost", recovery),
        )
        if path is not None
    ]
    body.append(
        "<p class=\"muted\">inputs — "
        + (", ".join(inputs) if inputs else "none")
        + "</p>"
    )
    for label, render, source in sections:
        body.append(f"<h2>{_esc(label)}</h2>")
        body.append(render(source))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        f"<meta charset=\"utf-8\"><title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )


def write_report(path, **kwargs) -> str:
    """Build the report and write it to ``path``; returns the path."""
    document = build_report(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path
