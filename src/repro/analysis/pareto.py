"""Pareto-front utilities: dominance, front filtering, hypervolume, figures.

The design-space explorer (:mod:`repro.core.explore`) optimizes several
objectives at once — latency, throughput, silicon cost — and its output is
a *front*, not a scalar.  This module holds the pure geometry that front
analysis needs:

* :func:`dominates` / :func:`pareto_front`: Pareto dominance over
  minimization objective vectors (maximized quantities are negated by the
  caller, which keeps one convention everywhere).
* :func:`hypervolume`: the exact dominated hypervolume against a reference
  point, for 2 or 3 objectives — the standard scalar measure of front
  quality (larger is better); tier-1 pins the ``--quick`` front's value.
* :func:`pareto_plot`: an ASCII scatter of a front, one marker per series
  (e.g. per topology), built on :func:`repro.analysis.ascii_plot`.

Everything here is deterministic and allocation-light; nothing imports the
simulator, so the module is equally usable on archived JSONL records.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .ascii_plot import ascii_plot

__all__ = ["dominates", "pareto_front", "hypervolume", "pareto_plot"]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (minimization on every axis).

    ``a`` dominates ``b`` when it is no worse everywhere and strictly
    better somewhere.  Vectors must have equal length; non-finite values
    participate with their usual ordering (``inf`` loses every comparison,
    which is exactly how penalty points should behave).
    """
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def pareto_front(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated points, in input order.

    Duplicate objective vectors are all kept (none dominates the other),
    so callers that need one representative per vector dedup first.
    """
    n = len(points)
    keep: list[int] = []
    for i in range(n):
        if not any(dominates(points[j], points[i]) for j in range(n) if j != i):
            keep.append(i)
    return keep


def _hv2(points: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    """Exact 2-objective hypervolume (minimization) by a sorted sweep."""
    clipped = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    if not clipped:
        return 0.0
    # Non-dominated staircase: ascending x, strictly descending y.
    clipped.sort()
    area = 0.0
    best_y = ref[1]
    for x, y in clipped:
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


def hypervolume(
    points: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Exact hypervolume dominated by ``points`` up to ``reference``.

    All objectives are minimized; ``reference`` must be weakly worse than
    every contributing point (points at or beyond it contribute nothing and
    are clipped out, so penalty points with ``inf`` coordinates are simply
    ignored).  Supports 2 or 3 objectives — the explorer's latency /
    −throughput / cost triple — exactly:

    * d=2: sorted staircase sweep, O(n log n);
    * d=3: sweep the third objective's distinct levels, accumulating the
      2-D hypervolume of the points active at each level, O(n² log n).

    Larger is better.  An empty (or fully clipped) front has hypervolume 0.
    """
    ref = tuple(float(r) for r in reference)
    d = len(ref)
    pts = []
    for p in points:
        v = tuple(float(x) for x in p)
        if len(v) != d:
            raise ValueError(f"point {p!r} has {len(v)} objectives, reference has {d}")
        if all(math.isfinite(x) for x in v) and all(x < r for x, r in zip(v, ref)):
            pts.append(v)
    if not pts:
        return 0.0
    if d == 2:
        return _hv2([(p[0], p[1]) for p in pts], (ref[0], ref[1]))
    if d == 3:
        # Sweep z ascending: between consecutive distinct z-levels, the
        # dominated (x, y) region is that of every point with z <= level.
        pts.sort(key=lambda p: p[2])
        levels = sorted({p[2] for p in pts})
        volume = 0.0
        for i, z in enumerate(levels):
            z_next = levels[i + 1] if i + 1 < len(levels) else ref[2]
            active = [(p[0], p[1]) for p in pts if p[2] <= z]
            volume += _hv2(active, (ref[0], ref[1])) * (z_next - z)
        return volume
    raise ValueError(f"hypervolume supports 2 or 3 objectives, got {d}")


def pareto_plot(
    front: Sequence[Mapping],
    *,
    x: str = "cost",
    y: str = "latency",
    series_key: str | None = "topology",
    title: str | None = None,
    width: int = 64,
    height: int = 18,
) -> str:
    """ASCII scatter of a Pareto front, one marker per ``series_key`` value.

    ``front`` is a sequence of mappings (archive/front records); ``x`` and
    ``y`` name numeric fields, ``series_key`` (optional) groups points into
    labelled marker series — by topology, by routing, whatever the study
    varies.  Missing or non-finite fields drop the point silently, matching
    :func:`~repro.analysis.ascii_plot.ascii_plot`.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    for rec in front:
        if x not in rec or y not in rec:
            continue
        name = str(rec.get(series_key, "front")) if series_key else "front"
        series.setdefault(name, []).append((float(rec[x]), float(rec[y])))
    if not any(series.values()):
        return (title or "pareto front") + "\n(no plottable points)"
    return ascii_plot(
        {k: series[k] for k in sorted(series)},
        width=width,
        height=height,
        title=title or f"pareto front: {y} vs {x}",
        xlabel=x,
        ylabel=y,
    )
