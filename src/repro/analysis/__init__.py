"""Experiment harness: sweeps, metrics, and paper-style reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "charts": [
        "ascii_chart", "chart_figure", "svg_bar_chart", "svg_line_chart",
        "svg_span_timeline",
    ],
    "htmlreport": ["build_report", "write_report"],
    "report": [
        "available_metrics", "format_figure", "format_markdown_table",
        "format_panel", "speedup_summary",
    ],
    "runner": [
        "METRICS", "AlgorithmFactory", "PointResult", "SweepResult",
        "VerificationError", "derive_fault_seed", "paper_cluster",
        "run_algorithms", "run_sweep", "subsample_sweep",
    ],
})
