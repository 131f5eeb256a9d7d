"""ASCII charts for sweep results.

The paper's figures are line charts; the text tables of
:mod:`repro.analysis.report` carry the numbers, and this module carries the
*shape* — a terminal-rendered plot of one metric's curves, one glyph per
algorithm, so crossovers and failures are visible at a glance in the bench
output files.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .runner import SweepResult

#: Plot glyphs assigned to algorithms in sweep order.
GLYPHS = "*o+x#@%&"


def ascii_chart(
    sweep: SweepResult,
    metric: str,
    title: str,
    width: int = 64,
    height: int = 16,
) -> str:
    """Render one metric's curves as an ASCII chart.

    Failed points (e.g. Hive's stuck runs in Figure 6a) are dropped from
    their curve, mirroring how the paper plots them as missing.
    """
    curves = sweep.series(metric)
    failures = sweep.series("failed")
    points: Dict[str, List[Tuple[float, float]]] = {}
    for name, curve in curves.items():
        kept = [
            (x, y)
            for (x, y), (_fx, failed) in zip(curve, failures[name])
            if not failed
        ]
        if kept:
            points[name] = kept

    all_x = [x for curve in points.values() for x, _y in curve]
    all_y = [y for curve in points.values() for _x, y in curve]
    if not all_x:
        return f"{title}\n  (no data)"

    x_low, x_high = min(all_x), max(all_x)
    y_low, y_high = min(min(all_y), 0.0), max(all_y)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, curve) in enumerate(points.items()):
        glyph = GLYPHS[index % len(GLYPHS)]
        legend.append(f"{glyph} {name}")
        for x, y in curve:
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][column] = glyph

    lines = [f"{title}   [{', '.join(legend)}]"]
    top_label = _format_number(y_high)
    for row_index, row in enumerate(grid):
        prefix = top_label if row_index == 0 else " " * len(top_label)
        lines.append(f"{prefix} |{''.join(row)}|")
    bottom = _format_number(y_low).rjust(len(top_label))
    lines.append(f"{bottom} +{'-' * width}+")
    x_left = _format_number(x_low)
    x_right = _format_number(x_high)
    padding = width - len(x_left) - len(x_right)
    lines.append(
        " " * (len(top_label) + 2)
        + x_left
        + " " * max(padding, 1)
        + x_right
    )
    return "\n".join(lines)


def chart_figure(
    sweep: SweepResult,
    panels: Sequence[Tuple[str, str]],
    width: int = 64,
    height: int = 14,
) -> str:
    """Stack ASCII charts for several panels of one figure."""
    blocks = []
    for metric, title in panels:
        blocks.append(ascii_chart(sweep, metric, title, width, height))
        blocks.append("")
    return "\n".join(blocks).rstrip()


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:.3g}"
    return f"{value:.4g}"

