"""Figure 6: topology comparison (mesh / folded torus / ring, 64 nodes).

Paper: open loop — ring has highest latency and lowest throughput; torus
has slightly higher zero-load latency than the mesh (folded links) but the
highest throughput (highest bisection).  Batch — same trends, except at
small m the mesh's edge-asymmetry makes it *slower* than the torus despite
its lower average latency (Fig. 7 explains why).

We run 4 VCs: with the 2-VC baseline the torus's dateline classes starve
its VC budget and it saturates below its bisection advantage (documented
in EXPERIMENTS.md).
"""

from __future__ import annotations

from conftest import emit
from exhibits import TOPOLOGIES

from repro.analysis import format_table


def test_fig06a_openloop(exhibit):
    out = {t: (rec["zero_load"], rec["saturation"]) for t, rec in exhibit.items()}
    rows = [[t, out[t][0], out[t][1]] for t in TOPOLOGIES]
    text = format_table(
        ["topology", "zero_load_latency", "saturation_throughput"],
        rows,
        title="Figure 6(a) - topology comparison, open loop (64 nodes, 4 VCs)",
    ) + (
        "\npaper: ring worst latency+throughput; torus zero-load slightly > "
        "mesh (folded links) but highest throughput"
    )
    emit("fig06a_topology_openloop", text)
    zl = {t: out[t][0] for t in TOPOLOGIES}
    sat = {t: out[t][1] for t in TOPOLOGIES}
    assert zl["ring"] > zl["torus"] > zl["mesh"]
    assert sat["ring"] < sat["mesh"] < sat["torus"]


def test_fig06b_batch(exhibit):
    out = {key: (res["runtime"], res["throughput"]) for key, res in exhibit.items()}
    ms = tuple(dict.fromkeys(m for _, m in out))
    base = out["mesh", 1][0]
    rows = [
        [m] + [out[t, m][0] / base for t in TOPOLOGIES] + [out[t, m][1] for t in TOPOLOGIES]
        for m in ms
    ]
    text = format_table(
        ["m"] + [f"T {t}" for t in TOPOLOGIES] + [f"theta {t}" for t in TOPOLOGIES],
        rows,
        precision=3,
        title="Figure 6(b) - topology comparison, batch model (normalized to mesh m=1)",
    ) + (
        "\npaper: ring slowest at all m; at small m the mesh is *slower* "
        "than the torus (worst-case corner nodes). Deviation: at large m "
        "our torus stays round-trip-limited (folded 2-cycle links against "
        "a 3-cycle credit loop) and does not overtake the mesh by m=32 the "
        "way the paper's does; its advantage shows in open loop (Fig 6a)."
    )
    emit("fig06b_topology_batch", text)
    for m in ms:
        assert out["ring", m][0] > out["mesh", m][0]
        assert out["ring", m][0] > out["torus", m][0]
    # the paper's small-m headline: mesh runtime exceeds torus runtime even
    # though the mesh's average latency is lower (worst-case corner nodes)
    assert out["mesh", 1][0] > out["torus", 1][0]
