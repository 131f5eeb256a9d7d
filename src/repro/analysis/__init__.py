"""Experiment harness: sweeps, metrics, and paper-style reports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "report": [
        "build_report", "fill_marked_tables", "format_markdown_table",
        "format_recovery_tables", "golden_tables", "write_report",
    ],
    "runner": [
        "METRICS", "AlgorithmFactory", "PointResult", "SweepResult",
        "VerificationError", "derive_fault_seed", "paper_cluster",
        "run_algorithms", "run_sweep",
    ],
})
