"""Figure 4: batch-model impact of router delay (a) and buffer size (b).

Paper: at small m the runtime tracks zero-load latency ratios; at large m
(achieved throughput near saturation) tr's impact is nearly negligible and
buffer depth takes over — the same insight as the open-loop curves, through
a completely different metric.
"""

from __future__ import annotations

import pytest
from conftest import emit
from exhibits import M_VALUES

from repro.analysis import format_table


def _batch_sweep(exhibit):
    return {key: (res["runtime"], res["throughput"]) for key, res in exhibit.items()}


def _render(title, labels, out, baseline_label):
    rows = []
    for m in M_VALUES:
        row = [m]
        for label in labels:
            t, _ = out[label, m]
            row.append(t / out[baseline_label, 1][0])
        for label in labels:
            row.append(out[label, m][1])
        rows.append(row)
    return format_table(
        ["m"] + [f"T {lbl}" for lbl in labels] + [f"theta {lbl}" for lbl in labels],
        rows,
        precision=3,
        title=title,
    )


def test_fig04a_router_delay(exhibit):
    out = _batch_sweep(exhibit)
    labels = list(dict.fromkeys(label for label, _ in out))
    table = _render(
        "Figure 4(a) - batch model, router delay (T normalized to tr=1, m=1)",
        labels,
        out,
        "tr=1",
    )
    r_m1 = out["tr=4", 1][0] / out["tr=1", 1][0]
    r_m32 = out["tr=4", 32][0] / out["tr=1", 32][0]
    text = (
        f"{table}\n"
        f"tr=4/tr=1 runtime ratio: m=1 {r_m1:.2f} (paper: tracks zero-load "
        f"2.5x), m=32 {r_m32:.2f} (paper: nearly negligible)"
    )
    emit("fig04a_batch_router_delay", text)
    assert r_m1 == pytest.approx(2.5, abs=0.3)
    assert r_m32 < 1.4


def test_fig04b_buffer_size(exhibit):
    out = _batch_sweep(exhibit)
    labels = list(dict.fromkeys(label for label, _ in out))
    table = _render(
        "Figure 4(b) - batch model, buffer size (T normalized to q=2, m=1)",
        labels,
        out,
        "q=2",
    )
    m1_spread = out["q=2", 1][0] / out["q=16", 1][0]
    m32_gain = out["q=2", 32][0] / out["q=16", 32][0]
    text = (
        f"{table}\n"
        f"q=2 vs q=16 runtime ratio: m=1 {m1_spread:.2f} (paper: ~none at "
        f"zero load), m=32 {m32_gain:.2f} (paper: larger buffers win as "
        f"load rises)"
    )
    emit("fig04b_batch_buffer_size", text)
    assert m1_spread == pytest.approx(1.0, abs=0.1)
    assert m32_gain > 1.1
