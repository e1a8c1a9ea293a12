"""Ablation: dateline VC-class discipline on wrapped topologies.

DESIGN.md calls out the balanced dateline assignment (non-wrapping legs in
class 1) as a deliberate choice over the textbook strict scheme (everyone
starts in class 0).  This ablation measures what the choice buys: on the
torus, balancing recovers throughput that strict leaves idle in class 1;
on the ring the wrap fraction is high enough that the two imbalances
roughly cancel — demonstrating the choice is topology-dependent, not free.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table


def test_ablation_dateline(exhibit):
    out = {key: (rec["zero_load"], rec["saturation"]) for key, rec in exhibit.items()}
    rows = [
        [topo, mode, zl, sat]
        for (topo, mode), (zl, sat) in out.items()
    ]
    gain_torus = out["torus", "balanced"][1] / out["torus", "strict"][1] - 1
    gain_ring = out["ring", "balanced"][1] / out["ring", "strict"][1] - 1
    text = format_table(
        ["topology", "dateline", "zero_load", "saturation"],
        rows,
        title="Ablation - dateline VC-class discipline (4 VCs)",
    ) + (
        f"\nbalanced vs strict saturation: torus {100 * gain_torus:+.1f}%, "
        f"ring {100 * gain_ring:+.1f}%\n"
        "strict leaves the high VC class idle for non-wrapping legs; on the "
        "torus (short legs, few wraps) balancing wins, on the ring (many "
        "wrapping legs) the imbalances roughly cancel"
    )
    emit("ablation_dateline", text)
    # zero-load latency must be identical (pure VC-class policy change)
    for topo in ("torus", "ring"):
        zl_b = out[topo, "balanced"][0]
        zl_s = out[topo, "strict"][0]
        assert abs(zl_b - zl_s) < 1.0
    # the design choice pays off on the torus (a few percent at this scaled
    # window; ~9% with longer measurement windows) and is topology-dependent
    assert gain_torus > 0.005
    assert abs(gain_ring) < 0.3
