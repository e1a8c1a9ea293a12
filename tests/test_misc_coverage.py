"""Coverage for smaller API surfaces and paper side-claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.execdriven import CmpSystem, blackscholes
from repro.network import Network


class TestNetworkMisc:
    def test_run_convenience(self, mesh4):
        net = Network(mesh4)
        net.offer(net.make_packet(0, 15, 1))
        delivered = net.run(100)
        assert len(delivered) == 1

    def test_buffered_flits_tracks_occupancy(self, mesh4):
        net = Network(mesh4)
        for _ in range(5):
            net.offer(net.make_packet(0, 3, 4))
        net.run(3)
        assert net.buffered_flits() > 0
        net.run(500)
        assert net.buffered_flits() == 0

    def test_in_flight_property(self, mesh4):
        net = Network(mesh4)
        net.offer(net.make_packet(0, 1, 1))
        assert net.in_flight == 1
        net.run(50)
        assert net.in_flight == 0


class TestOpenLoopMisc:
    def test_p99_on_healthy_run(self, mesh4):
        sim = OpenLoopSimulator(mesh4, warmup=150, measure=300, drain_limit=1500)
        res = sim.run(0.1)
        assert res.avg_latency <= res.p99_latency < float("inf")

    def test_custom_pattern_injection(self, mesh4):
        from repro.traffic import PermutationPattern

        class Neighbor(PermutationPattern):
            name = "neighbor"

            def _map(self, src: int) -> int:
                return (src + 1) % self.num_nodes

        sim = OpenLoopSimulator(
            mesh4,
            pattern=Neighbor(16),
            warmup=150,
            measure=300,
            drain_limit=1500,
        )
        res = sim.run(0.2)
        # (src+1) mod 16 on a 4x4 mesh: 12 single-hop pairs, 3 row-wrap
        # pairs at 4 hops, one corner pair at 6 -> average 1.875 hops
        assert res.avg_hops == pytest.approx(1.875, abs=0.15)
        assert res.avg_latency < 10


class TestPaperSideClaims:
    def test_packet_size_mix_does_not_change_tr_comparison(self, mesh4):
        """§III-B: 'Simulations using different packet sizes (such as a
        mixture of short and long packets) did not impact the comparisons.'"""
        ratios = {}
        for size in ("single", "bimodal"):
            cfg = mesh4.with_(packet_size=size)
            r1 = BatchSimulator(cfg, batch_size=40, max_outstanding=1).run().runtime
            r2 = BatchSimulator(
                cfg.with_(router_delay=2), batch_size=40, max_outstanding=1
            ).run().runtime
            ratios[size] = r2 / r1
        assert ratios["bimodal"] == pytest.approx(ratios["single"], abs=0.15)

    def test_256_node_network_functional(self):
        """Paper: 'A 256-node on-chip network using a 16-ary 2-cube topology
        is also evaluated ... show[ing] a similar trend.'"""
        cfg = NetworkConfig(k=16, n=2)
        res = BatchSimulator(cfg, batch_size=5, max_outstanding=4).run()
        assert res.completed
        assert res.total_requests == 256 * 5

    def test_simulation_speed_claim(self, mesh8):
        """The methodology exists because synthetic simulation is fast:
        a full 64-node batch run must finish in seconds, not hours."""
        import time

        t0 = time.perf_counter()
        BatchSimulator(mesh8, batch_size=100, max_outstanding=4).run()
        assert time.perf_counter() - t0 < 30


class TestCmpMisc:
    def test_max_cycles_cutoff(self):
        res = CmpSystem(blackscholes(5000), ideal=True, seed=2).run(max_cycles=200)
        assert not res.completed
        assert res.cycles == 200

    def test_seed_changes_results(self):
        a = CmpSystem(blackscholes(1200), ideal=True, seed=1).run()
        b = CmpSystem(blackscholes(1200), ideal=True, seed=2).run()
        assert a.cycles != b.cycles

    def test_timeline_bucket_resolution(self):
        res = CmpSystem(
            blackscholes(1200), ideal=True, seed=2, timeline_bucket=100
        ).run()
        assert res.timeline.shape[1] == res.cycles // 100 + 1


class TestAnalysisMisc:
    def test_format_matrix_unnormalized(self):
        from repro.analysis import format_matrix

        out = format_matrix(np.array([[0.0, 0.5]]), normalize=False)
        assert len(out.splitlines()) == 1

    def test_format_matrix_custom_shades(self):
        from repro.analysis import format_matrix

        out = format_matrix(np.array([[1.0]]), shades=" X")
        assert "X" in out
