"""Figure 22: correlation with and without the kernel/OS batch extension.

Paper: adding the OS model (static batch increase + dynamic timer batches)
raises the exec-driven correlation from 0.954 to 0.972 at 3 GHz and — the
headline — from 0.705 to 0.931 at 75 MHz, where unmodelled timer traffic
had wrecked the enhanced batch model.
"""

from __future__ import annotations

import numpy as np
from conftest import emit
from exhibits import exec_batch_pairs

from repro.analysis import format_table
from repro.core.correlation import pearson


def test_fig22_os_model_correlation(exhibit):
    batches = exhibit["batch"]
    out = {}
    for clock, exec_results in exhibit["exec"].items():
        for with_os in (False, True):
            xs, ys = exec_batch_pairs(
                exec_results, lambda name, tr: batches[clock, with_os, name, tr]["runtime"]
            )
            out[clock, with_os] = pearson(xs, ys), float(np.sqrt(np.mean((ys - xs) ** 2)))
    rows = [
        [clock, "with OS model" if with_os else "no OS model", r, rmse]
        for (clock, with_os), (r, rmse) in out.items()
    ]
    text = format_table(
        ["clock", "model", "pearson_r", "rmse_vs_exec"],
        rows,
        title="Figure 22 - correlation with/without kernel-traffic modelling",
    ) + (
        "\npaper: 3GHz 0.954 -> 0.972; 75MHz 0.705 -> 0.931 (the OS model "
        "matters most where timer traffic dominates)"
    )
    emit("fig22_os_model_correlation", text)
    # the OS model must not hurt, and must help at 75 MHz
    assert out["75MHz", True][1] <= out["75MHz", False][1] + 0.02
    assert out["3GHz", True][1] <= out["3GHz", False][1] + 0.05
    assert out["75MHz", True][0] >= out["75MHz", False][0] - 0.02
