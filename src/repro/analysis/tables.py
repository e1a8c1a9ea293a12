"""Plain-text tables for benchmark-harness output.

The benchmark harnesses print the same rows the paper's tables/figures
report; this module renders them readably in a terminal and in captured
pytest output (no plotting dependencies are available offline).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_records", "format_matrix"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_records(
    records: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render a list of dict records (e.g. from :func:`repro.core.parallel.run_sweep`)."""
    if not records:
        return title or "(no records)"
    cols = list(columns) if columns is not None else list(records[0])
    rows = [[rec.get(c, "") for c in cols] for rec in records]
    return format_table(cols, rows, precision=precision, title=title)


def format_matrix(
    matrix,
    *,
    normalize: bool = True,
    shades: str = " .:-=+*#%@",
    title: str | None = None,
) -> str:
    """Render a matrix as ASCII art (darker = heavier), Fig. 13 style."""
    import numpy as np

    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    top = m.max()
    if normalize and top > 0:
        m = m / top
    lines = [] if title is None else [title]
    levels = len(shades) - 1
    for row in m:
        lines.append(
            "".join(shades[min(levels, int(v * levels + 0.5))] * 2 for v in row)
        )
    return "\n".join(lines)
