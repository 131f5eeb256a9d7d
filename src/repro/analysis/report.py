"""Markdown tables of the golden files, and the run report.

``benchmarks/golden.py`` writes ``BENCH_figures.json`` (Figures 4-8,
the Section 5.2 theory runs, the ablations) and ``BENCH_recovery.json``
(the two recovery sweeps); :func:`golden_tables` renders both into the
tables EXPERIMENTS.md carries between ``<!-- BEGIN name -->`` and
``<!-- END name -->`` markers, and :func:`fill_marked_tables` puts them
there.  :func:`build_report` (``python -m repro report``) stitches a
run's artifacts into one markdown file whose every section is the text
an existing renderer prints, so the report diffs cleanly in git.  Every
table goes through :func:`format_markdown_table`.
"""

from __future__ import annotations

import json
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def format_markdown_table(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """A GitHub-flavoured markdown table with aligned columns.

    Cells are stringified and padded so the raw text is readable too.
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


# -- the golden files ----------------------------------------------------------

#: A figure point's metrics as panel columns: (label, divisor, decimals).
#: A failed run's times print ``FAIL(OOM)``: the paper plots them as
#: missing points ("it got stuck").
_PANELS = {
    "total_seconds": ("running time (s)", 1, 1),
    "avg_map_seconds": ("avg map time (s)", 1, 1),
    "avg_reduce_seconds": ("avg reduce time (s)", 1, 1),
    "map_output_bytes": ("map output (MB)", 1e6, 2),
    "sketch_bytes": ("SP-Sketch (KB)", 1e3, 1),
}


def golden_tables(figures: Dict, recovery: Dict) -> Dict[str, str]:
    """Every EXPERIMENTS.md table, keyed by its marker name, rendered
    from a parsed ``BENCH_figures.json`` and ``BENCH_recovery.json``."""
    tables = {
        f"figure {key}": _figure_table(key, figure)
        for key, figure in figures["figures"].items()
    }
    tables["theory"] = _theory_table(figures["theory"])
    ablations = figures["ablations"]
    tables["ablation grid"] = format_markdown_table(
        ["variant", "time (s)", "traffic (MB)", "records shipped",
         "balance", "max reducer input"],
        [[row["variant"], f"{row['total_seconds']:.1f}",
          f"{row['intermediate_bytes'] / 1e6:.2f}",
          row["intermediate_records"], f"{row['reducer_balance']:.2f}",
          row["max_reducer_input_records"]]
         for row in ablations["grid"]],
    )
    tables["ablation beta"] = format_markdown_table(
        ["scale", "beta", "skew recall", "sketch (B)"],
        [[f"{row['scale']:.2f}", f"{row['beta']:.2f}",
          f"{row['recall']:.2f}", row["sketch_bytes"]]
         for row in ablations["beta"]],
    )
    tables["ablation combiner"] = format_markdown_table(
        ["engine", "records shipped"],
        [[row["engine"], row["intermediate_records"]]
         for row in ablations["combiner"]],
    )
    tables.update(
        (f"recovery {key}", table)
        for key, table in format_recovery_tables(recovery).items()
    )
    return tables


def _figure_table(key: str, figure: Dict) -> str:
    """One row per (x, engine); one column per panel of the figure."""
    metrics = [name for name in figure["points"][0] if name in _PANELS]
    header = [figure["x_label"], "engine"] + [
        f"{key}{letter} {_PANELS[name][0]}"
        for letter, name in zip("abcdef", metrics)
    ]
    rows = []
    for point in figure["points"]:
        row = [f"{point['x']:g}", point["engine"]]
        for name in metrics:
            _label, divisor, decimals = _PANELS[name]
            if point["failed"] and name.endswith("_seconds"):
                row.append("FAIL(OOM)")
            else:
                row.append(f"{point[name] / divisor:.{decimals}f}")
        rows.append(row)
    return format_markdown_table(header, rows)


#: The columns every Section 5.2 theory row has; a row's other fields
#: print as its ``detail``.
_THEORY_COLUMNS = ("claim", "input", "d", "n", "m", "emissions_per_tuple",
                   "records", "record_bound")


def _theory_table(rows: List[Dict]) -> str:
    return format_markdown_table(
        ["claim", "input", "d", "n", "m", "emissions / tuple",
         "records shipped", "record bound", "detail"],
        [[row["claim"], row["input"], row["d"], row["n"], row["m"],
          "—" if row["emissions_per_tuple"] is None
          else f"{row['emissions_per_tuple']:.2f}",
          row["records"], row["record_bound"],
          ", ".join(f"{name.replace('_', ' ')}: {value}"
                    for name, value in row.items()
                    if name not in _THEORY_COLUMNS)]
         for row in rows],
    )


def format_recovery_tables(bench: Dict) -> Dict[str, str]:
    """The tables of a parsed ``BENCH_recovery.json``, keyed by sweep.

    ``"points"`` is the crash-pressure table and ``"node_points"`` the
    node-loss table, one line per row in file order; a sweep the file
    lacks has no table.  The run report and EXPERIMENTS.md print these.
    """
    tables = {}
    if "points" in bench:
        tables["points"] = format_markdown_table(
            ["engine", "p", "time(s)", "overhead(s)", "slowdown",
             "attempts", "killed", "spec", "recov", "done"],
            [[row["engine"], f"{row['pressure']:.2f}",
              f"{row['total_seconds']:.1f}",
              f"{row['recovery_overhead_seconds']:.1f}",
              f"{row['slowdown']:.2f}", row["attempts"],
              row["killed_tasks"], row["speculative_wins"],
              row["recovered"], "no" if row["failed"] else "yes"]
             for row in bench["points"]],
        )
    if "node_points" in bench:
        tables["node_points"] = format_markdown_table(
            ["engine", "p", "mode", "time(s)", "lost", "resumed",
             "overhead(s)", "done"],
            [[row["engine"], f"{row['node_pressure']:.2f}",
              "ckpt" if row["checkpointed"] else "abort",
              f"{row['total_seconds']:.1f}", row["nodes_lost"],
              row["resumed_rounds"],
              f"{row['recovery_overhead_seconds']:.1f}",
              "yes" if row["completed"] else "no"]
             for row in bench["node_points"]],
        )
    return tables


def fill_marked_tables(text: str, tables: Dict[str, str]) -> str:
    """``text`` with the body between each table's ``<!-- BEGIN name -->``
    and ``<!-- END name -->`` lines replaced by the table; a table
    whose markers ``text`` lacks raises ``ValueError``."""
    for name, table in tables.items():
        pattern = re.compile(
            rf"(<!-- BEGIN {re.escape(name)} -->\n).*?(\n<!-- END "
            rf"{re.escape(name)} -->)",
            re.S,
        )
        text, found = pattern.subn(
            lambda match: match.group(1) + table + match.group(2), text
        )
        if found != 1:
            raise ValueError(f"{found} marker pairs for table {name!r}")
    return text


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
    return "\n\n".join(format_recovery_tables(_load_json(path)).values())


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
