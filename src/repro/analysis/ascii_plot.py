"""Terminal line and scatter plots.

Enough plotting to eyeball a latency–load curve or a correlation scatter
in captured benchmark output, with multiple labelled series per axes.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["ascii_plot", "ascii_scatter"]

_MARKERS = "ox+*#@%&"


def _grid(width: int, height: int) -> list[list[str]]:
    return [[" "] * width for _ in range(height)]


def _finite(points):
    return [
        (x, y)
        for x, y in points
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]


def ascii_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 18,
    title: str | None = None,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Plot named series of (x, y) points on shared axes.

    Non-finite points (saturated latencies) are dropped; each series gets a
    marker from a fixed cycle, shown in the legend.
    """
    cleaned = {name: _finite(pts) for name, pts in series.items()}
    all_pts = [p for pts in cleaned.values() for p in pts]
    if not all_pts:
        return (title or "") + "\n(no finite points)"
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    grid = _grid(width, height)
    legend = []
    for i, (name, pts) in enumerate(cleaned.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} {name}")
        for x, y in pts:
            col = round((x - x0) / (x1 - x0) * (width - 1))
            row = height - 1 - round((y - y0) / (y1 - y0) * (height - 1))
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel}  [{y0:.4g} .. {y1:.4g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f"{xlabel}  [{x0:.4g} .. {x1:.4g}]    " + "   ".join(legend))
    return "\n".join(lines)


def ascii_scatter(
    pairs: Sequence[tuple[float, float]],
    *,
    width: int = 48,
    height: int = 16,
    title: str | None = None,
    xlabel: str = "x",
    ylabel: str = "y",
    diagonal: bool = True,
) -> str:
    """Scatter plot with an optional y=x reference diagonal (for
    correlation plots like the paper's Figs. 5/8/15/19/22)."""
    pts = _finite(pairs)
    if not pts:
        return (title or "") + "\n(no finite points)"
    vals = [v for p in pts for v in p]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    grid = _grid(width, height)
    if diagonal:
        for i in range(min(width, height * 3)):
            x = lo + (hi - lo) * i / (width - 1)
            col = round((x - lo) / (hi - lo) * (width - 1))
            row = height - 1 - round((x - lo) / (hi - lo) * (height - 1))
            if 0 <= row < height and 0 <= col < width:
                grid[row][col] = "."
    for x, y in pts:
        col = round((x - lo) / (hi - lo) * (width - 1))
        row = height - 1 - round((y - lo) / (hi - lo) * (height - 1))
        grid[row][col] = "o"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel}  [{lo:.4g} .. {hi:.4g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f"{xlabel}  [{lo:.4g} .. {hi:.4g}]")
    return "\n".join(lines)

