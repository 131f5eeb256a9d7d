"""Experiment harness: sweeps, metrics, and paper-style reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "charts": ["ascii_chart", "chart_figure"],
    "report": [
        "available_metrics", "build_report", "format_figure",
        "format_markdown_table", "format_panel", "format_recovery_tables",
        "write_report",
    ],
    "runner": [
        "METRICS", "AlgorithmFactory", "PointResult", "SweepResult",
        "VerificationError", "derive_fault_seed", "paper_cluster",
        "run_algorithms", "run_sweep",
    ],
})
