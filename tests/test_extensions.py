"""Tests for the strict-dateline extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.config import NetworkConfig
from repro.network import Network
from repro.routing import DOR
from repro.topology import Torus
from repro.traffic import UniformRandom


class TestStrictDateline:
    def test_config_accepts_modes(self):
        NetworkConfig(topology="torus", dateline="strict")
        NetworkConfig(topology="torus", dateline="balanced")
        with pytest.raises(ValueError):
            NetworkConfig(dateline="diagonal")

    def test_dor_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DOR(Torus(4, 2), 2, dateline_mode="spiral")

    def test_strict_nonwrapping_stays_class0(self):
        from repro.network.packet import Packet

        t = Torus(8, 2)
        r = DOR(t, 2, dateline_mode="strict")
        pkt = Packet(0, 0, 2, 1, 0)
        assert r.route(0, pkt)[0].vcs == (0,)
        assert r.route(1, pkt)[0].vcs == (0,)

    def test_strict_wrapping_switches_at_crossing(self):
        from repro.network.packet import Packet

        t = Torus(8, 2)
        r = DOR(t, 2, dateline_mode="strict")
        pkt = Packet(0, 6, 1, 1, 0)  # +x through the wrap: 6,7,0,1
        assert r.route(6, pkt)[0].vcs == (0,)  # lands 7, pre-crossing
        assert r.route(7, pkt)[0].vcs == (1,)  # lands 0: crossed
        assert r.route(0, pkt)[0].vcs == (1,)  # stays high class

    @pytest.mark.parametrize("topo", ["torus", "ring"])
    def test_strict_mode_deadlock_free_under_load(self, topo):
        cfg = NetworkConfig(topology=topo, k=4, n=2, dateline="strict")
        net = Network(cfg)
        gen = rng_mod.make_generator(9, "strict")
        pat = UniformRandom(16)
        offered = 0
        for _ in range(600):
            for src in np.nonzero(gen.random(16) < 0.4)[0]:
                src = int(src)
                net.offer(net.make_packet(src, pat.dest(src, gen), 2))
                offered += 1
            net.step()
        for _ in range(60000):
            if net.is_idle():
                break
            net.step()
        assert net.is_idle()
        assert net.total_packets_delivered == offered

    def test_strict_routes_remain_minimal(self):
        cfg = NetworkConfig(topology="torus", k=4, n=2, dateline="strict")
        net = Network(cfg)
        pkt = net.make_packet(0, 15, 1)
        net.offer(pkt)
        for _ in range(200):
            if net.is_idle():
                break
            net.step()
        assert pkt.hops == net.topology.min_hops(0, 15)
