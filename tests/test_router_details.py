"""Focused tests on router microarchitecture behaviour."""

from __future__ import annotations

from repro.config import NetworkConfig
from repro.network import Network


def drain(net, limit=20000):
    for _ in range(limit):
        if net.is_idle():
            return True
        net.step()
    return net.is_idle()


class TestCrossbarConstraints:
    def test_one_flit_per_output_port_per_cycle(self, mesh4):
        # two sources feeding the same destination column must serialize on
        # the shared channel: delivery takes at least one cycle per flit.
        net = Network(mesh4)
        for _ in range(20):
            net.offer(net.make_packet(0, 3, 1))
            net.offer(net.make_packet(4, 3, 1))
        assert drain(net)
        # 40 flits eject at node 3 through one ejection port
        assert net.now >= 40

    def test_input_port_shared_across_outputs(self, mesh4):
        # packets from one source to two different destinations share the
        # injection input port: at most one flit leaves it per cycle.
        net = Network(mesh4)
        for _ in range(15):
            net.offer(net.make_packet(5, 6, 1))
            net.offer(net.make_packet(5, 9, 1))
        assert drain(net)
        assert net.now >= 30  # 30 flits through one injection port


class TestWormhole:
    def test_body_flits_follow_head_vc(self, mesh4):
        """A multi-flit packet streams contiguously: its per-flit ejection
        times at the destination are consecutive."""
        net = Network(mesh4)
        net.offer(net.make_packet(0, 15, 4))
        ejections = []
        seen = 0
        while not net.is_idle():
            cycle = net.now
            net.step()
            ejections += [cycle] * (int(net.flit_ejections[15]) - seen)
            seen = int(net.flit_ejections[15])
        assert len(ejections) == 4
        assert ejections == list(range(ejections[0], ejections[0] + 4))

    def test_two_packets_interleave_across_vcs_not_within(self, mesh4):
        # With 2 VCs, two long packets on the same route can be in flight
        # concurrently; total time is less than strict serialization.
        net = Network(mesh4.with_(vc_buffer_size=8))
        serial = Network(mesh4.with_(num_vcs=2, vc_buffer_size=8))
        for n in (net,):
            n.offer(n.make_packet(0, 3, 8))
            n.offer(n.make_packet(4, 7, 8))
        assert drain(net)
        # distinct routes: no conflict, finishes near single-packet time
        single = Network(mesh4.with_(vc_buffer_size=8))
        single.offer(single.make_packet(0, 3, 8))
        assert drain(single)
        assert net.now <= single.now + 8


class TestAdaptiveRouting:
    def test_ma_spreads_over_congested_link(self):
        """MA routes around a congested dimension; DOR cannot."""
        runtimes = {}
        for alg in ("dor", "ma"):
            cfg = NetworkConfig(k=4, n=2, routing=alg, num_vcs=4)
            net = Network(cfg)
            # hammer the x-first path 0->1->...->3 with cross traffic
            for _ in range(30):
                net.offer(net.make_packet(0, 15, 2))  # corner to corner
                net.offer(net.make_packet(1, 3, 2))  # congests row 0
                net.offer(net.make_packet(2, 3, 2))
            assert drain(net)
            runtimes[alg] = net.now
        assert runtimes["ma"] <= runtimes["dor"]


class TestAgeArbitrationEffect:
    def test_age_reduces_worst_case_latency(self, mesh8):
        """Age-based arbitration trades average for tail latency."""
        tails = {}
        for arb in ("round_robin", "age"):
            cfg = mesh8.with_(arbitration=arb)
            net = Network(cfg)
            lat = []
            import numpy as np

            from repro import rng as rng_mod
            from repro.traffic import UniformRandom

            gen = rng_mod.make_generator(3, "arb")
            pat = UniformRandom(64)
            for _ in range(1200):
                for src in np.nonzero(gen.random(64) < 0.35)[0]:
                    src = int(src)
                    net.offer(net.make_packet(src, pat.dest(src, gen), 1))
                for pkt in net.step():
                    lat.append(pkt.latency)
            tails[arb] = float(np.percentile(lat, 99))
        # age-based arbitration should not have a *worse* tail
        assert tails["age"] <= tails["round_robin"] * 1.1


class TestBimodalTraffic:
    def test_long_packets_raise_latency(self, mesh4):
        from repro.core.openloop import OpenLoopSimulator

        short = OpenLoopSimulator(mesh4, warmup=200, measure=400, drain_limit=2500)
        mixed = OpenLoopSimulator(
            mesh4.with_(packet_size="bimodal"),
            warmup=200,
            measure=400,
            drain_limit=2500,
        )
        assert mixed.run(0.2).avg_latency > short.run(0.2).avg_latency

    def test_bimodal_batch_completes(self, mesh4):
        from repro.core.closedloop import BatchSimulator

        res = BatchSimulator(
            mesh4.with_(packet_size="bimodal"), batch_size=40, max_outstanding=4
        ).run()
        assert res.completed
        # flits per op > 2, so flit throughput exceeds 2b/T packets formula
        assert res.throughput > res.packet_throughput


class TestLargerNetworks:
    def test_16x16_mesh_works(self):
        """The paper's 256-node configuration runs (scaled load)."""
        cfg = NetworkConfig(k=16, n=2)
        net = Network(cfg)
        for src in range(0, 256, 16):
            net.offer(net.make_packet(src, 255 - src, 1))
        assert drain(net)
        assert net.total_packets_delivered == 16

    def test_3d_mesh_works(self):
        cfg = NetworkConfig(k=4, n=3)
        net = Network(cfg)
        assert net.num_nodes == 64
        pkt = net.make_packet(0, 63, 1)
        net.offer(pkt)
        assert drain(net)
        assert pkt.hops == 9  # 3+3+3

    def test_3d_torus_works(self):
        cfg = NetworkConfig(topology="torus", k=4, n=3)
        net = Network(cfg)
        pkt = net.make_packet(0, 63, 1)
        net.offer(pkt)
        assert drain(net)
        assert pkt.hops == 3  # single wrap per dimension
