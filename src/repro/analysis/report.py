"""Text rendering of sweep results, golden files and the run report.

Each figure panel in the paper is a set of curves over a shared x-axis;
:func:`format_panel` prints the same content as an aligned text table
(x column + one column per algorithm), and :func:`format_figure` stacks
the three panels of a figure.  Failed runs (OOM-flagged, like Hive at
``p >= 0.4``) render as ``FAIL`` — the paper shows these as missing data
points ("it got stuck").

:func:`format_recovery_tables` renders ``BENCH_recovery.json``, and
:func:`build_report` (``python -m repro report``) stitches a run's
artifacts into one markdown file whose every section is the text an
existing renderer prints, so the report diffs cleanly in git.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from .runner import METRICS, SweepResult


def format_panel(
    sweep: SweepResult,
    metric: str,
    title: str,
    unit: str = "",
    precision: int = 2,
) -> str:
    """One figure panel as an aligned text table."""
    curves = sweep.series(metric)
    failures = sweep.series("failed")
    x_values = [point.x for point in sweep.points]

    header_cells = [sweep.x_label] + list(curves)
    rows: List[List[str]] = []
    for index, x in enumerate(x_values):
        cells = [_format_x(x)]
        for name in curves:
            failed = failures[name][index][1] > 0 and metric in (
                "total_seconds",
                "avg_map_seconds",
                "avg_reduce_seconds",
            )
            if failed:
                cells.append("FAIL(OOM)")
            else:
                cells.append(f"{curves[name][index][1]:.{precision}f}")
        rows.append(cells)

    widths = [
        max(len(header_cells[i]), *(len(row[i]) for row in rows))
        for i in range(len(header_cells))
    ]
    lines = [f"{title}" + (f"  [{unit}]" if unit else "")]
    lines.append(
        "  ".join(cell.rjust(width) for cell, width in zip(header_cells, widths))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def format_figure(
    sweep: SweepResult,
    panels: Sequence[Tuple[str, str, str]],
    heading: Optional[str] = None,
) -> str:
    """Stack several panels: each entry is ``(metric, title, unit)``."""
    blocks = [heading or sweep.name]
    blocks.append("=" * len(blocks[0]))
    for metric, title, unit in panels:
        blocks.append("")
        blocks.append(format_panel(sweep, metric, title, unit))
    return "\n".join(blocks)


def format_markdown_table(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """A GitHub-flavoured markdown table with aligned columns.

    Used by the ``doctor`` report (and anything else emitting markdown):
    cells are stringified and padded so the raw text is readable too.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in cells))
        if cells
        else len(str(header[i]))
        for i in range(len(header))
    ]

    def line(row: Sequence[str]) -> str:
        padded = [str(cell).ljust(width) for cell, width in zip(row, widths)]
        return "| " + " | ".join(padded) + " |"

    out = [line(list(header)), line(["-" * width for width in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def available_metrics() -> List[str]:
    """Names accepted by :func:`format_panel` / ``SweepResult.series``."""
    return sorted(METRICS)


def _format_x(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


# -- BENCH_recovery.json -------------------------------------------------------


def format_recovery_tables(bench: Dict) -> Dict[str, str]:
    """The tables of a parsed ``BENCH_recovery.json``, keyed by sweep.

    ``"points"`` is the crash-pressure table and ``"node_points"`` the
    node-loss table, one line per row in file order; a sweep the file
    lacks has no table.  The recovery bench's result files, the run
    report and EXPERIMENTS.md all print these.
    """
    tables = {}
    if "points" in bench:
        tables["points"] = _text_table(
            f"{'engine':10s}{'p':>6s}{'time(s)':>10s}{'overhead(s)':>13s}"
            f"{'slowdown':>10s}{'attempts':>10s}{'killed':>8s}{'spec':>6s}"
            f"{'recov':>7s}{'done':>6s}",
            [
                f"{row['engine']:10s}{row['pressure']:6.2f}"
                f"{row['total_seconds']:10.1f}"
                f"{row['recovery_overhead_seconds']:13.1f}"
                f"{row['slowdown']:10.2f}{row['attempts']:10d}"
                f"{row['killed_tasks']:8d}{row['speculative_wins']:6d}"
                f"{row['recovered']:7d}{'no' if row['failed'] else 'yes':>6s}"
                for row in bench["points"]
            ],
        )
    if "node_points" in bench:
        tables["node_points"] = _text_table(
            f"{'engine':10s}{'p':>6s}{'mode':>8s}{'time(s)':>10s}"
            f"{'lost':>6s}{'resumed':>9s}{'overhead(s)':>13s}{'done':>6s}",
            [
                f"{row['engine']:10s}{row['node_pressure']:6.2f}"
                f"{'ckpt' if row['checkpointed'] else 'abort':>8s}"
                f"{row['total_seconds']:10.1f}{row['nodes_lost']:6d}"
                f"{row['resumed_rounds']:9d}"
                f"{row['recovery_overhead_seconds']:13.1f}"
                f"{'yes' if row['completed'] else 'no':>6s}"
                for row in bench["node_points"]
            ],
        )
    return tables


def _text_table(header: str, lines: List[str]) -> str:
    return "\n".join([header, "-" * len(header), *lines])


# -- the run report ------------------------------------------------------------


def build_report(
    trace=None,
    doctor=None,
    perf=None,
    recovery=None,
    title: str = "repro run report",
) -> str:
    """The run report as markdown; every input path is optional.

    The trace is read once (:func:`~repro.observability.load_trace`: a
    damaged file raises its one-line, line-numbered error) and feeds the
    Trace, Telemetry and "Lineage & alerts" sections.  A missing input
    is a one-line "not provided" note, so a partial report says so.
    """
    records = None
    if trace is not None:
        from ..observability import load_trace

        records = load_trace(trace)
    inputs = ", ".join(
        f"{label}: `{path}`"
        for label, path in (
            ("trace", trace), ("doctor audit", doctor),
            ("bench: suite", perf), ("bench: recovery cost", recovery),
        )
        if path is not None
    )
    parts = [f"# {title}", "", f"inputs: {inputs or 'none'}"]
    for label, render, source, what in (
        ("Trace", _trace_section, records, "trace"),
        ("Telemetry", _telemetry_section, records, "trace"),
        ("Lineage & alerts", _lineage_section, records, "trace"),
        ("Doctor audit", _doctor_section, doctor, "doctor report"),
        ("Bench: suite", _perf_section, perf,
         "suite JSONL (benchmarks/suite/run.py --out)"),
        ("Bench: recovery cost", _recovery_section, recovery,
         "BENCH_recovery.json"),
    ):
        body = f"({what} not provided)" if source is None else render(source)
        parts += ["", f"## {label}", "", body.rstrip("\n")]
    return "\n".join(parts) + "\n"


def write_report(path, **inputs) -> str:
    """Build the report and write it to ``path``; returns the path."""
    text = build_report(**inputs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _fenced(text: str) -> str:
    return "```text\n" + text.rstrip("\n") + "\n```"


def _load_json(path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _trace_section(records) -> str:
    from ..observability import TraceAnalysis

    return _fenced(TraceAnalysis(records).format_summary())


def _telemetry_section(records) -> str:
    from ..observability import Telemetry, replay

    return _fenced(replay(records, Telemetry()).prometheus_text())


def _lineage_section(records) -> str:
    from ..observability import (
        LineageIndex, explain_reducer, format_explain_markdown,
    )

    try:
        return format_explain_markdown(explain_reducer(LineageIndex(records)))
    except ValueError as error:  # no flow edges: not a debug-level trace
        return f"({error})"


def _doctor_section(path) -> str:
    from ..observability import format_doctor_markdown

    return format_doctor_markdown(_load_json(path))


def _recovery_section(path) -> str:
    tables = format_recovery_tables(_load_json(path))
    return "\n\n".join(_fenced(table) for table in tables.values())


def _suite_runs(path) -> List[Dict]:
    """The runs of a ``benchmarks/suite/run.py --out`` file.

    A run is a line holding a JSON object with ``workload``, ``failed``,
    ``attempted`` and ``metrics``; any other line is skipped.  A metric
    value that is not a number is ``None``: a degraded probe writes
    ``null``, and its run, failures included, still counts.
    """
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
                        name: (_number(metric.get("value")),
                               str(metric.get("unit", "")))
                        for name, metric in run["metrics"].items()
                    },
                })
            except (ValueError, TypeError, KeyError, AttributeError):
                continue  # a truncated or foreign line is not a run
    return runs


def _number(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def _perf_section(path) -> str:
    runs = _suite_runs(path)
    if not runs:
        return f"(no suite runs in {path})"
    workloads = sorted({run["workload"] for run in runs})
    cells: Dict[Tuple[str, str], List[Optional[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, (value, unit) in run["metrics"].items():
            cells.setdefault((name, run["workload"]), []).append(value)
            units[name] = unit
    rows = [
        [name, unit] + [_median_cell(cells.get((name, w))) for w in workloads]
        for name, unit in units.items()
    ]
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    operations = (
        f"{failed} of {attempted} FAILED" if failed else f"{attempted} ok"
    )
    return (
        f"{len(runs)} suite run(s), median per cell; operations: "
        f"{operations}\n\n"
        + format_markdown_table(["metric", "unit"] + workloads, rows)
    )


def _median_cell(values: Optional[List[Optional[float]]]) -> str:
    """Blank when the workload lacks the metric; ``null`` when any of its
    runs degraded the probe."""
    if values is None:
        return ""
    if None in values:
        return "null"
    return f"{statistics.median(values):.4g}"
