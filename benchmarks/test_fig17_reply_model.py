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
from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.reply import FixedReply, ProbabilisticReply

MS = (1, 4, 16)
TRS = (1, 2, 4)
B = 100
MODELS = (
    ("fixed20", FixedReply(20)),
    ("fixed50", FixedReply(50)),
    ("prob 20+0.1*300", ProbabilisticReply(20, 300, 0.1)),
)


def test_fig17_reply_model():
    def run():
        out = {}
        for label, model in MODELS:
            for m in MS:
                for tr in TRS:
                    cfg = NetworkConfig(router_delay=tr)
                    res = BatchSimulator(
                        cfg, batch_size=B, max_outstanding=m, reply_model=model
                    ).run()
                    out[label, m, tr] = (res.runtime, res.throughput)
        return out

    out = run()
    sections = []
    for label, _ in MODELS:
        rows = []
        for m in MS:
            base = out[label, m, 1][0]
            rows.append(
                [m]
                + [out[label, m, tr][0] / base for tr in TRS]
                + [out[label, m, tr][1] for tr in TRS]
            )
        sections.append(
            format_table(
                ["m"] + [f"T tr={tr}" for tr in TRS] + [f"theta tr={tr}" for tr in TRS],
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
