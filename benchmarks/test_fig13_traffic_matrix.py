"""Figure 13: lu's logical communication pattern vs its actual traffic.

Paper: the application's explicit producer/consumer pattern is structured
(Fig. 13a), but the traffic actually injected into the network is spread by
home-tile address interleaving and looks near-uniform (Fig. 13b) — the
justification for using uniform random traffic in the batch/exec-driven
comparison.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.analysis import format_matrix


def _normalized_row_cv(matrix) -> float:
    """Coefficient of variation of the row-normalized matrix: 0 = uniform."""
    m = np.array(matrix, dtype=float)
    rows = m.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    norm = m / rows
    return float(norm.std() / max(norm.mean(), 1e-12))


def test_fig13_traffic_matrix(exhibit):
    res = exhibit
    logical_cv = _normalized_row_cv(res["logical_matrix"])
    actual_cv = _normalized_row_cv(res["traffic_matrix"])
    text = (
        format_matrix(
            res["logical_matrix"],
            title="Figure 13(a) - lu logical communication (consumer x producer; dark = heavy)",
        )
        + "\n\n"
        + format_matrix(
            res["traffic_matrix"],
            title="Figure 13(b) - actual injected traffic (src x dst)",
        )
        + f"\n\nnon-uniformity (row-normalized CV): logical {logical_cv:.2f}, "
        f"actual {actual_cv:.2f}\n"
        "paper: the actual traffic 'appears more random' than the "
        "application's communication pattern -> uniform random is the "
        "right synthetic stand-in"
    )
    emit("fig13_traffic_matrix", text)
    assert actual_cv < 0.6 * logical_cv
