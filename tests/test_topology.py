"""Tests for mesh / torus / ring / ideal topologies."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig
from repro.topology import Mesh, Ring, Torus, build_topology


class TestMesh:
    def test_shape(self):
        m = Mesh(8, 2)
        assert m.num_nodes == 64
        assert m.num_dims == 2
        assert m.num_network_ports == 4
        assert m.local_port == 4
        assert m.ports_per_router == 5

    def test_coords_roundtrip(self):
        m = Mesh(8, 2)
        for node in range(64):
            assert m.node_at(m.coords(node)) == node

    def test_coords_x_fastest(self):
        m = Mesh(4, 2)
        assert m.coords(0) == (0, 0)
        assert m.coords(1) == (1, 0)
        assert m.coords(4) == (0, 1)

    def test_edge_ports_absent(self):
        m = Mesh(4, 2)
        # node 3 is the +x edge of row 0.
        assert m.channel(3, 0) is None  # +x
        assert m.channel(3, 1) is not None  # -x
        assert m.channel(0, 1) is None  # -x at origin
        assert m.channel(0, 3) is None  # -y at origin

    def test_channel_wiring_reciprocal(self):
        m = Mesh(4, 2)
        ch = m.channel(5, 0)  # +x from (1,1)
        assert ch.dst == 6
        # arrives at the neighbour's -x input port
        assert ch.in_port == 1
        assert ch.delay == 1

    def test_min_hops_manhattan(self):
        m = Mesh(8, 2)
        assert m.min_hops(0, 63) == 14  # (0,0) -> (7,7)
        assert m.min_hops(0, 0) == 0
        assert m.min_hops(0, 7) == 7

    def test_average_min_hops_known_value(self):
        # 2D mesh average distance = 2 * (k^2-1)/(3k) for uniform pairs
        m = Mesh(8, 2)
        expected = 2 * (64 - 1) / (3 * 8) * (64 / 63)
        assert m.average_min_hops() == pytest.approx(expected, rel=1e-9)

    def test_direction(self):
        m = Mesh(4, 2)
        assert m.direction(0, 3, 0) == 1
        assert m.direction(3, 0, 0) == -1
        assert m.direction(0, 12, 0) == 0  # aligned in x

    def test_validate(self):
        Mesh(4, 2).validate()
        Mesh(8, 2).validate()

    def test_channels_count(self):
        # 2D mesh: 2 * 2 * k * (k-1) directed channels
        m = Mesh(4, 2)
        assert sum(1 for _ in m.channels()) == 2 * 2 * 4 * 3


class TestTorus:
    def test_wrap_channels_exist(self):
        t = Torus(4, 2)
        ch = t.channel(3, 0)  # +x from the edge wraps to x=0
        assert ch is not None
        assert ch.dst == 0

    def test_folded_channel_delay_doubles(self):
        t = Torus(4, 2)
        for ch in t.channels():
            assert ch.delay == 2

    def test_unfolded_option(self):
        t = Torus(4, 2, channel_delay_multiplier=1)
        assert next(iter(t.channels())).delay == 1

    def test_min_hops_wraps(self):
        t = Torus(8, 2)
        assert t.min_hops(0, 7) == 1  # wrap in x
        assert t.min_hops(0, 63) == 2  # (7,7) via both wraps

    def test_lower_average_hops_than_mesh(self):
        assert Torus(8, 2).average_min_hops() < Mesh(8, 2).average_min_hops()

    def test_direction_tie_breaks_positive(self):
        t = Torus(8, 1)
        assert t.direction(0, 4, 0) == 1  # distance 4 both ways

    def test_validate(self):
        Torus(4, 2).validate()


class TestRing:
    def test_is_one_dimensional_torus(self):
        r = Ring(16)
        assert r.num_nodes == 16
        assert r.num_dims == 1
        assert r.ports_per_router == 3

    def test_min_hops(self):
        r = Ring(64)
        assert r.min_hops(0, 1) == 1
        assert r.min_hops(0, 63) == 1
        assert r.min_hops(0, 32) == 32

    def test_average_min_hops(self):
        r = Ring(64)
        expected = (2 * sum(range(1, 32)) + 32) / 63
        assert r.average_min_hops() == pytest.approx(expected)

    def test_validate(self):
        Ring(16).validate()


class TestRegistry:
    def test_builds_each_topology(self):
        assert isinstance(build_topology(NetworkConfig(topology="mesh")), Mesh)
        assert isinstance(build_topology(NetworkConfig(topology="torus")), Torus)
        assert isinstance(build_topology(NetworkConfig(topology="ring")), Ring)

    def test_ring_node_count_is_k_to_the_n(self):
        topo = build_topology(NetworkConfig(topology="ring", k=8, n=2))
        assert topo.num_nodes == 64

    def test_node_counts_consistent_with_config(self):
        for name in ("mesh", "torus", "ring"):
            cfg = NetworkConfig(topology=name, k=4, n=2)
            assert build_topology(cfg).num_nodes == cfg.num_nodes
