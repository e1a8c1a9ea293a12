"""Figure 17: the batch model with the enhanced reply model.

Paper panels: (a) fixed 20-cycle memory latency, (b) fixed 50, (c)
probabilistic 20 + 0.1x300.  As memory latency grows it dominates the
round trip and the router delay's impact shrinks; panels (b) and (c) share
the same *mean* (50 cycles) but the probabilistic model's long 320-cycle
tail lowers the injection rate further and mutes tr even more.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table


def test_fig17_reply_model(exhibit):
    out = {key: (res["runtime"], res["throughput"]) for key, res in exhibit.items()}
    models, ms, trs = (tuple(dict.fromkeys(axis)) for axis in zip(*out))
    sections = []
    for label in models:
        rows = []
        for m in ms:
            base = out[label, m, 1][0]
            rows.append(
                [m]
                + [out[label, m, tr][0] / base for tr in trs]
                + [out[label, m, tr][1] for tr in trs]
            )
        sections.append(
            format_table(
                ["m"] + [f"T tr={tr}" for tr in trs] + [f"theta tr={tr}" for tr in trs],
                rows,
                precision=3,
                title=f"Figure 17 - reply model: {label}",
            )
        )
    ratio = lambda label, m: out[label, m, 4][0] / out[label, m, 1][0]  # noqa: E731
    text = "\n\n".join(sections) + (
        f"\n\ntr=4/tr=1 runtime ratio at m=1: fixed20 {ratio('fixed20', 1):.2f}, "
        f"fixed50 {ratio('fixed50', 1):.2f}, probabilistic "
        f"{ratio('prob 20+0.1*300', 1):.2f}\n"
        f"theta at m=1, tr=1: fixed50 {out['fixed50', 1, 1][1]:.3f} vs "
        f"probabilistic {out['prob 20+0.1*300', 1, 1][1]:.3f} (paper Fig "
        f"17b/c: same mean latency but the long-tail model injects less and "
        f"mutes tr further)"
    )
    emit("fig17_reply_model", text)
    assert ratio("fixed20", 1) > ratio("fixed50", 1)
    assert out["prob 20+0.1*300", 1, 1][1] < out["fixed50", 1, 1][1]
    assert ratio("prob 20+0.1*300", 1) <= ratio("fixed50", 1) + 0.03
