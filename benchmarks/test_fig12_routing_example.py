"""Figure 12: example DOR and VAL routes for a transpose corner pair.

Paper: for the corner-to-corner source/destination of the transpose
pattern, VAL's random intermediate always falls in the minimal quadrant
(the whole mesh), so VAL routes minimally — the worst-case zero-load
latency of DOR and VAL is identical, explaining Fig. 10(b)/11.
"""

from __future__ import annotations

from conftest import emit

from repro.network.packet import Packet
from repro.routing import DOR, Valiant
from repro.topology import Mesh


def _walk(routing, topo, pkt):
    node, path = pkt.src, [pkt.src]
    for _ in range(100):
        cands = routing.route(node, pkt)
        if cands[0].out_port == topo.local_port:
            return path
        node = topo.channel(node, cands[0].out_port).dst
        path.append(node)
    raise AssertionError("route did not terminate")


def test_fig12_routing_example():
    topo = Mesh(8, 2)
    src, dst = 7, 56  # (7,0) -> (0,7): the transpose corner pair

    def run():
        dor = DOR(topo, 2)
        val = Valiant(topo, 2, seed=4)
        dor_path = _walk(dor, topo, Packet(0, src, dst, 1, 0))
        val_paths = []
        for pid in range(200):
            pkt = Packet(pid, src, dst, 1, 0)
            val.on_inject(pkt)
            val_paths.append((pkt.intermediate, _walk(val, topo, pkt)))
        return dor_path, val_paths

    dor_path, val_paths = run()
    min_hops = topo.min_hops(src, dst)
    val_hops = [len(p) - 1 for _, p in val_paths]
    coords = lambda path: " -> ".join(str(topo.coords(n)) for n in path)  # noqa: E731
    inter, sample = val_paths[0]
    text = (
        f"Figure 12 - transpose corner pair S={topo.coords(src)} "
        f"D={topo.coords(dst)} (8x8 mesh)\n\n"
        f"DOR route  ({len(dor_path) - 1} hops): {coords(dor_path)}\n\n"
        f"VAL sample (intermediate {topo.coords(inter)}, "
        f"{len(sample) - 1} hops): {coords(sample)}\n\n"
        f"minimal hops = {min_hops}; over 200 VAL draws: min "
        f"{min(val_hops)}, max {max(val_hops)} hops\n"
        "paper: every VAL intermediate lies in the minimal quadrant for "
        "this pair, so VAL remains minimal -> identical worst-case "
        "zero-load latency to DOR"
    )
    emit("fig12_routing_example", text)
    assert len(dor_path) - 1 == min_hops
    assert all(h == min_hops for h in val_hops)
