"""Figure 19: correlation of the enhanced batch models with exec-driven.

Paper: BA_inj and BA_re improve on the baseline's r = 0.829; surprisingly
BA_inj+re is *worse* than either alone — the anomaly that §V traces to
unmodelled kernel traffic.  We report all three r values plus each model's
regression slope against the exec-driven runtimes (slope 1 = perfect
sensitivity match; the baseline's slope is far above 1).
"""

from __future__ import annotations

import numpy as np
from conftest import TR_VALUES, emit

from repro.analysis import format_table
from repro.core.correlation import pearson
from repro.execdriven import BENCHMARKS
from test_fig18_enhanced_models import run_batch_models

LABELS = ("BA", "BA_inj", "BA_re", "BA_inj+re")


def pairs_for(label, batches, exec_results):
    xs, ys = [], []
    for name in BENCHMARKS:
        base_exec = exec_results[name, 1].cycles
        base_batch = batches[name, label, 1]
        for tr in TR_VALUES:
            xs.append(exec_results[name, tr].cycles / base_exec)
            ys.append(batches[name, label, tr] / base_batch)
    return np.array(xs), np.array(ys)


def test_fig19_enhanced_correlation(exec_results_3ghz, characterizations):
    batches = run_batch_models(characterizations)
    rows = []
    stats = {}
    for label in LABELS:
        xs, ys = pairs_for(label, batches, exec_results_3ghz)
        r = pearson(xs, ys)
        slope = float(np.polyfit(xs, ys, 1)[0])
        rmse = float(np.sqrt(np.mean((ys - xs) ** 2)))
        stats[label] = (r, slope, rmse)
        rows.append([label, r, slope, rmse])
    text = format_table(
        ["model", "pearson_r", "slope_vs_exec", "rmse_vs_exec"],
        rows,
        title="Figure 19 - enhanced batch models vs exec-driven",
    ) + (
        "\npaper: baseline r=0.829; BA_inj/BA_re improve; BA_inj+re "
        "unexpectedly worse than either alone (kernel traffic unmodelled "
        "- resolved in Fig. 22).  slope/rmse vs the y=x diagonal show how "
        "strongly each model over-predicts tr sensitivity."
    )
    emit("fig19_enhanced_correlation", text)
    # every enhanced model is closer to the diagonal than the baseline
    for label in ("BA_inj", "BA_re", "BA_inj+re"):
        assert stats[label][2] < stats["BA"][2]
        assert abs(stats[label][1] - 1) < abs(stats["BA"][1] - 1)
