"""Additional branch coverage across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.execdriven import CmpSystem, characterize, fft
from repro.traffic import FixedSize


class TestBatchVariants:
    def test_reply_sizes_override(self, mesh4):
        """4-flit replies (cache lines) double flit throughput per op."""
        small = BatchSimulator(mesh4, batch_size=30, max_outstanding=2).run()
        data = BatchSimulator(
            mesh4, batch_size=30, max_outstanding=2, reply_sizes=FixedSize(4)
        ).run()
        assert data.completed
        # flits per op: 1+1 vs 1+4
        ratio = (data.throughput * data.runtime) / (small.throughput * small.runtime)
        assert ratio == pytest.approx(2.5, rel=0.05)

    def test_request_sizes_override(self, mesh4):
        res = BatchSimulator(
            mesh4, batch_size=20, max_outstanding=1, sizes=FixedSize(2)
        ).run()
        assert res.completed

    def test_os_model_with_incomplete_run(self, mesh4):
        os_model = OSModel(static_fraction=1.0, timer_rate=0.02, timer_batch=4)
        res = BatchSimulator(
            mesh4,
            batch_size=100,
            max_outstanding=1,
            os_model=os_model,
            max_cycles=300,
        ).run()
        assert not res.completed
        assert res.runtime == 300

    def test_transpose_diagonal_nodes_finish_fast(self):
        """Transpose fixed points talk to themselves: near-zero network
        time, so diagonal nodes finish long before corner pairs."""
        cfg = NetworkConfig(k=4, n=2, traffic="transpose")
        res = BatchSimulator(cfg, batch_size=40, max_outstanding=1).run()
        finish = res.node_finish.reshape(4, 4)
        diagonal = np.diag(finish).mean()
        off = finish[0, 3]
        assert diagonal < off


class TestOpenLoopVariants:
    def test_custom_sizes(self, mesh4):
        sim = OpenLoopSimulator(
            mesh4, sizes=FixedSize(3), warmup=150, measure=300, drain_limit=2000
        )
        res = sim.run(0.15)  # 0.05 packets/cycle/node
        assert res.num_measured == pytest.approx(0.05 * 16 * 300, rel=0.3)
        assert not res.saturated

    def test_seed_override_changes_stream(self, mesh4):
        sim = OpenLoopSimulator(mesh4, warmup=100, measure=200, drain_limit=1000)
        a = sim.run(0.1, seed=1)
        b = sim.run(0.1, seed=2)
        assert a.num_measured != b.num_measured or a.avg_latency != b.avg_latency


class TestCmpSmallCaches:
    def test_small_caches_raise_miss_rates(self, cmp_small):
        spec = fft(1500)
        small = CmpSystem(spec, cmp_small, seed=3).run()
        big = CmpSystem(spec, seed=3).run()
        # same program, smaller caches: strictly more network requests
        assert small.requests > big.requests

    def test_characterize_with_custom_config(self, cmp_small):
        ch = characterize(fft(1200), cmp_small, seed=3)
        assert ch.ideal_cycles > 0
        assert ch.nar > 0


class TestTopologyEdgeCases:
    def test_two_node_ring(self):
        from repro.topology import Ring

        r = Ring(2)
        r.validate()
        assert r.min_hops(0, 1) == 1

    def test_one_dimensional_mesh(self):
        from repro.topology import Mesh

        m = Mesh(8, 1)
        m.validate()
        assert m.num_nodes == 8
        assert m.min_hops(0, 7) == 7

    def test_line_network_routes(self):
        cfg = NetworkConfig(k=8, n=1)
        from repro.network import Network

        net = Network(cfg)
        pkt = net.make_packet(0, 7, 1)
        net.offer(pkt)
        for _ in range(100):
            if net.is_idle():
                break
            net.step()
        assert pkt.hops == 7
