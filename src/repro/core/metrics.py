"""Per-node views of raw run data: the paper's Fig. 11 node distributions
and Fig. 7 spatial runtime map.

The latency summary statistics live in :mod:`repro.analysis.stats`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["node_distribution", "runtime_map"]


def node_distribution(
    per_node_values: np.ndarray, bins: int = 10, range_: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of a per-node metric as *fraction of nodes* per bin.

    This is the paper's Fig. 11 view: x = metric value (average latency or
    runtime), y = % of nodes.  Returns ``(bin_edges, fractions)``.
    """
    values = np.asarray(per_node_values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise ValueError("no finite per-node values to histogram")
    counts, edges = np.histogram(values, bins=bins, range=range_)
    return edges, counts / values.size


def runtime_map(node_finish: np.ndarray, k: int) -> np.ndarray:
    """Per-node runtime normalized to the slowest node, as a k×k grid.

    Row y, column x hold node ``x + k*y`` — the layout of the paper's Fig. 7
    surface plots.  On an edge-asymmetric mesh the center of the grid
    finishes first; on a torus the map is flat.
    """
    finish = np.asarray(node_finish, dtype=np.float64)
    if finish.size != k * k:
        raise ValueError(f"expected {k * k} nodes, got {finish.size}")
    if (finish < 0).any():
        raise ValueError("run did not complete: some nodes never finished")
    return (finish / finish.max()).reshape(k, k)
