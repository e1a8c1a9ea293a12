"""The paper's two traffic classes: user requests and OS (kernel) traffic.

A packet's class is :data:`~repro.network.packet.USER` or
:data:`~repro.network.packet.OS`.  Under ``arbitration="priority"`` a node
keeps one source FIFO per class and drains the OS FIFO first, and the
switch arbiter ranks OS over user; under ``round_robin`` and ``age`` a node
keeps one FIFO and the class changes nothing.  The arbiter itself is
covered in ``test_router_details.py``; the OS model under priority on both
backends in ``test_golden_records.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.network.factory import NETWORK_BACKENDS, build_network
from repro.network.packet import OS, USER


def _run_mixed(cfg: NetworkConfig, *, rate: float, os_share: float, cycles: int) -> dict:
    """Bernoulli traffic with an ``os_share`` of OS packets, then drain;
    the latencies of each class's packets, in creation order."""
    net = build_network(cfg)
    gen = np.random.default_rng(cfg.seed)
    n = net.num_nodes
    latencies: dict[int, list] = {USER: [], OS: []}
    packets = []
    for _ in range(cycles):
        for src in np.flatnonzero(gen.random(n) < rate).tolist():
            dst = (src + 1 + int(gen.integers(0, n - 1))) % n
            cls = OS if gen.random() < os_share else USER
            pkt = net.make_packet(src, dst, 1, traffic_class=cls)
            packets.append(pkt)
            net.offer(pkt)
        net.step()
    while not net.is_idle():
        net.step()
    for pkt in packets:
        latencies[pkt.traffic_class].append(pkt.latency)
    return latencies


class TestSourceQueues:
    @pytest.mark.parametrize("backend", NETWORK_BACKENDS)
    def test_priority_drains_the_os_queue_first(self, backend):
        """A kernel packet offered behind a user backlog leaves the node
        first under priority, last under round-robin."""
        order = {}
        for arbitration in ("priority", "round_robin"):
            cfg = NetworkConfig(k=4, n=2, arbitration=arbitration, backend=backend)
            net = build_network(cfg)
            for _ in range(6):
                net.offer(net.make_packet(0, 5, 1, traffic_class=USER))
            kernel = net.make_packet(0, 5, 1, traffic_class=OS)
            net.offer(kernel)
            delivered = []
            while not net.is_idle():
                delivered.extend(p.pid for p in net.step())
            order[arbitration] = delivered.index(kernel.pid)
        assert order["priority"] == 0
        assert order["round_robin"] == 6

    def test_backends_agree_on_mixed_traffic(self):
        cfg = NetworkConfig(k=4, n=2, seed=4, arbitration="priority", num_vcs=3)
        runs = [
            _run_mixed(cfg.with_(backend=b), rate=0.5, os_share=0.3, cycles=300)
            for b in NETWORK_BACKENDS
        ]
        assert runs[0] == runs[1]


class TestClosedLoopClasses:
    def test_no_os_model_means_no_os_requests(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        res = BatchSimulator(cfg, batch_size=10, max_outstanding=2).run()
        assert res.os_requests == 0


class TestPrioritySeparation:
    def test_high_class_beats_low_class_under_load(self):
        """Near saturation, strict priority must measurably favor the OS
        class; round-robin must not."""
        stats = {}
        for arbitration in ("priority", "round_robin"):
            cfg = NetworkConfig(k=4, n=2, seed=9, arbitration=arbitration)
            lat = _run_mixed(cfg, rate=0.75, os_share=0.2, cycles=600)
            stats[arbitration] = {
                cls: (np.mean(v), np.percentile(v, 99)) for cls, v in lat.items()
            }
        hi, lo = stats["priority"][OS], stats["priority"][USER]
        assert hi[0] < lo[0]
        assert hi[1] < lo[1]
        rr_hi, rr_lo = stats["round_robin"][OS], stats["round_robin"][USER]
        assert hi[0] < rr_hi[0]
        assert rr_hi[0] > 0.5 * rr_lo[0]
