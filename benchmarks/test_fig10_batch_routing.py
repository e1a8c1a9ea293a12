"""Figure 10: batch-model routing comparison under uniform random and
transpose.

Paper's headline discrepancy: under transpose at m=1, VAL's much higher
*average* latency costs only ~1.7% runtime versus DOR, because the
closed-loop runtime is a worst-case metric and the corner-to-corner
transpose pairs route minimally under VAL too (Fig. 12).
"""

from __future__ import annotations

from conftest import emit
from exhibits import ROUTING as ALGS

from repro.analysis import format_table


def test_fig10a_uniform_random(exhibit):
    out = exhibit
    ms = tuple(dict.fromkeys(m for _, m in out))
    base = out["dor", 1]["runtime"]
    rows = [
        [m] + [out[a, m]["runtime"] / base for a in ALGS] + [out[a, m]["throughput"] for a in ALGS]
        for m in ms
    ]
    text = format_table(
        ["m"] + [f"T {a}" for a in ALGS] + [f"theta {a}" for a in ALGS],
        rows,
        precision=3,
        title="Figure 10(a) - batch model, uniform random (normalized to DOR m=1)",
    ) + "\npaper: VAL slowest at low m (2x zero-load) and lowest throughput at high m"
    emit("fig10a_batch_routing_uniform", text)
    assert out["val", 1]["runtime"] > 1.5 * out["dor", 1]["runtime"]
    assert out["val", 16]["throughput"] < out["dor", 16]["throughput"]


def test_fig10b_transpose(exhibit):
    out = exhibit
    ms = tuple(dict.fromkeys(m for _, m in out))
    base = out["dor", 1]["runtime"]
    rows = [
        [m] + [out[a, m]["runtime"] / base for a in ALGS] + [out[a, m]["throughput"] for a in ALGS]
        for m in ms
    ]
    gap = out["val", 1]["runtime"] / out["dor", 1]["runtime"] - 1
    text = format_table(
        ["m"] + [f"T {a}" for a in ALGS] + [f"theta {a}" for a in ALGS],
        rows,
        precision=3,
        title="Figure 10(b) - batch model, transpose (normalized to DOR m=1)",
    ) + (
        f"\nVAL vs DOR runtime at m=1: {100 * gap:+.1f}% (paper: +1.7% - "
        f"worst-case corner pairs are minimal under VAL too, Fig. 12)\n"
        f"VAL avg request latency at m=1 is "
        f"{out['val', 1]['avg_request_latency'] / out['dor', 1]['avg_request_latency']:.2f}x "
        f"DOR's (the average is much worse; the worst case is not)"
    )
    emit("fig10b_batch_routing_transpose", text)
    assert abs(gap) < 0.08
    assert out["val", 1]["avg_request_latency"] > 1.25 * out["dor", 1]["avg_request_latency"]
    # at high m, path diversity wins on transpose: MA clearly beats DOR
    # (open-loop Fig 9b agrees).  Deviation: our VAL lands in the overload
    # regime at high m, where its doubled channel use halves goodput, so
    # unlike the paper's m=32 point it does not overtake DOR here.
    assert out["ma", 16]["throughput"] > 1.3 * out["dor", 16]["throughput"]
