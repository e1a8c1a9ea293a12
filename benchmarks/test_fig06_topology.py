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

import pytest
from conftest import BATCH_SIZE, OPENLOOP, emit

from repro.analysis import format_table
from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator

TOPOLOGIES = ("mesh", "torus", "ring")
M_VALUES = (1, 4, 16, 32)


def test_fig06a_openloop():
    def run():
        out = {}
        for topo in TOPOLOGIES:
            sim = OpenLoopSimulator(NetworkConfig(topology=topo, num_vcs=4), **OPENLOOP)
            out[topo] = (
                sim.zero_load_latency(),
                sim.saturation_throughput(tolerance=0.02),
            )
        return out

    out = run()
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


def test_fig06b_batch():
    def run():
        out = {}
        for topo in TOPOLOGIES:
            cfg = NetworkConfig(topology=topo, num_vcs=4)
            for m in M_VALUES:
                res = BatchSimulator(cfg, batch_size=BATCH_SIZE, max_outstanding=m).run()
                out[topo, m] = (res.runtime, res.throughput)
        return out

    out = run()
    base = out["mesh", 1][0]
    rows = [
        [m] + [out[t, m][0] / base for t in TOPOLOGIES] + [out[t, m][1] for t in TOPOLOGIES]
        for m in M_VALUES
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
    for m in M_VALUES:
        assert out["ring", m][0] > out["mesh", m][0]
        assert out["ring", m][0] > out["torus", m][0]
    # the paper's small-m headline: mesh runtime exceeds torus runtime even
    # though the mesh's average latency is lower (worst-case corner nodes)
    assert out["mesh", 1][0] > out["torus", 1][0]
