"""Figure 3: open-loop impact of router delay (a) and buffer size (b).

Paper: tr scales zero-load latency by 1.5x/2.5x (tr=2/4) but leaves
saturation at ~43%; buffer depth leaves zero-load latency alone but starves
throughput when shallow.  Our credit loop is 3 cycles, so the starved point
is q=2 where the paper's was q=4 (see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.analysis import ascii_plot, format_table


def _curves(exhibit):
    return {
        label: (rec["curve"], rec["zero_load"], rec["saturation"])
        for label, rec in exhibit.items()
    }


def test_fig03a_router_delay(exhibit):
    res = _curves(exhibit)
    rows = [[label, zl, sat] for label, (_, zl, sat) in res.items()]
    table = format_table(
        ["config", "zero_load", "saturation"],
        rows,
        title="Figure 3(a) - router delay, open loop",
    )
    plot = ascii_plot(
        {
            label: [(r["injection_rate"], r["avg_latency"]) for r in sweep]
            for label, (sweep, _, _) in res.items()
        },
        xlabel="offered load",
        ylabel="avg latency",
    )
    zl = {label: v[1] for label, v in res.items()}
    sat = {label: v[2] for label, v in res.items()}
    text = (
        f"{table}\n\n{plot}\n"
        f"zero-load ratios vs tr=1: tr=2 {zl['tr=2']/zl['tr=1']:.2f} "
        f"(paper 1.5), tr=4 {zl['tr=4']/zl['tr=1']:.2f} (paper 2.5)\n"
        f"saturation unchanged by tr (paper ~0.43): "
        + ", ".join(f"{label} {s:.3f}" for label, s in sat.items())
    )
    emit("fig03a_router_delay", text)
    assert zl["tr=2"] / zl["tr=1"] == pytest.approx(1.5, abs=0.1)
    assert zl["tr=4"] / zl["tr=1"] == pytest.approx(2.5, abs=0.15)
    assert max(sat.values()) - min(sat.values()) < 0.05


def test_fig03b_buffer_size(exhibit):
    res = _curves(exhibit)
    rows = [[label, zl, sat] for label, (_, zl, sat) in res.items()]
    table = format_table(
        ["config", "zero_load", "saturation"],
        rows,
        title="Figure 3(b) - VC buffer depth, open loop",
    )
    zl = {label: v[1] for label, v in res.items()}
    sat = {label: v[2] for label, v in res.items()}
    text = (
        f"{table}\n"
        f"zero-load latency q-independent (paper: yes): spread "
        f"{max(zl.values()) - min(zl.values()):.2f} cycles\n"
        f"shallow-buffer throughput loss q=2 vs q=16: "
        f"{100 * (1 - sat['q=2'] / sat['q=16']):.1f}% (paper: ~15.5% at its "
        f"starved point q=4; our 3-cycle credit loop moves the knee to q=2)\n"
        f"q=16 -> q=32 gains {100 * (sat['q=32'] / sat['q=16'] - 1):.1f}% "
        f"(paper: buffers beyond 16 no longer the bottleneck)"
    )
    emit("fig03b_buffer_size", text)
    assert max(zl.values()) - min(zl.values()) < 1.5
    assert sat["q=2"] < sat["q=16"]
    assert abs(sat["q=32"] - sat["q=16"]) < 0.04
