"""Ablation: blocking-load fraction vs router-delay sensitivity.

DESIGN.md models in-order cores as blocking on a per-benchmark fraction of
their L1 misses.  This ablation shows that knob is what couples system
runtime to network latency at all: with no blocking (perfect MLP within 8
MSHRs) router delay is almost free; fully blocking cores approach the
batch model's zero-load scaling.  It also grounds the m=1 choice for the
enhanced batch variants (Figs. 18/19/22).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table


def test_ablation_blocking(exhibit):
    out = {key: res["cycles"] for key, res in exhibit.items()}
    fractions = tuple(dict.fromkeys(frac for frac, _ in out))
    rows = [
        [frac, out[frac, 1], out[frac, 8], out[frac, 8] / out[frac, 1]]
        for frac in fractions
    ]
    text = format_table(
        ["blocking_fraction", "cycles tr=1", "cycles tr=8", "tr8/tr1"],
        rows,
        precision=2,
        title="Ablation - blocking-load fraction vs router-delay sensitivity (canneal)",
    ) + (
        "\nnon-blocking cores hide the network entirely; blocking loads are "
        "what expose router delay to system runtime (the basis for running "
        "the enhanced batch models at m=1)"
    )
    emit("ablation_blocking", text)
    ratios = [out[f, 8] / out[f, 1] for f in fractions]
    assert ratios[0] < 1.1  # fully non-blocking: tr nearly free
    assert ratios[2] > ratios[1] > ratios[0]  # monotone in blocking
    assert ratios[2] > 1.3
