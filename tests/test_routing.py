"""Unit tests for the routing algorithms."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig
from repro.network.packet import Packet
from repro.routing import DOR, ROMM, MinimalAdaptive, Valiant, build_routing, dor_port, vc_range
from repro.topology import Mesh, Ring, Torus


def mkpkt(src, dst, pid=0):
    return Packet(pid, src, dst, 1, 0)


def walk(routing, topo, pkt, max_hops=200):
    """Follow candidates (taking the first) until ejection; return path."""
    node = pkt.src
    path = [node]
    for _ in range(max_hops):
        cands = routing.route(node, pkt)
        assert cands, "no candidates returned"
        cand = cands[0]
        if cand.out_port == topo.local_port:
            return path
        ch = topo.channel(node, cand.out_port)
        assert ch is not None, f"routed into a missing port at {node}"
        node = ch.dst
        path.append(node)
    raise AssertionError("did not reach destination")


class TestVcRange:
    def test_partitions_evenly(self):
        assert vc_range(0, 2, 4) == (0, 1)
        assert vc_range(1, 2, 4) == (2, 3)

    def test_odd_split_nonempty(self):
        assert vc_range(0, 2, 3) == (0,)
        assert vc_range(1, 2, 3) == (1, 2)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            vc_range(0, 3, 2)


class TestDorPort:
    def test_x_first(self):
        m = Mesh(4, 2)
        assert dor_port(m, 0, 5) == 0  # +x before +y
        assert dor_port(m, 1, 0) == 1  # -x
        assert dor_port(m, 0, 4) == 2  # +y when x aligned
        assert dor_port(m, 4, 0) == 3  # -y

    def test_arrival(self):
        m = Mesh(4, 2)
        assert dor_port(m, 5, 5) == -1


class TestDORMesh:
    def test_route_is_single_candidate_all_vcs(self):
        m = Mesh(4, 2)
        r = DOR(m, 2)
        cands = r.route(0, mkpkt(0, 5))
        assert len(cands) == 1
        assert cands[0].vcs == (0, 1)

    def test_reaches_destination_minimally(self):
        m = Mesh(8, 2)
        r = DOR(m, 2)
        for src, dst in [(0, 63), (63, 0), (7, 56), (12, 12)]:
            pkt = mkpkt(src, dst)
            path = walk(r, m, pkt)
            assert path[-1] == dst
            assert len(path) - 1 == m.min_hops(src, dst)

    def test_x_then_y_order(self):
        m = Mesh(4, 2)
        r = DOR(m, 2)
        path = walk(r, m, mkpkt(0, 15))
        # x traversal completes before y starts
        xs = [m.coords(n)[0] for n in path]
        ys = [m.coords(n)[1] for n in path]
        assert xs == [0, 1, 2, 3, 3, 3, 3]
        assert ys == [0, 0, 0, 0, 1, 2, 3]

    def test_eject_at_destination(self):
        m = Mesh(4, 2)
        r = DOR(m, 2)
        cands = r.route(5, mkpkt(0, 5))
        assert cands[0].out_port == m.local_port


class TestDORTorus:
    def test_requires_two_vcs(self):
        with pytest.raises(ValueError):
            DOR(Torus(4, 2), 1)

    def test_reaches_destination_minimally(self):
        t = Torus(8, 2)
        r = DOR(t, 2)
        for src, dst in [(0, 63), (0, 7), (7, 0), (0, 36)]:
            path = walk(r, t, mkpkt(src, dst))
            assert path[-1] == dst
            assert len(path) - 1 == t.min_hops(src, dst)

    def test_nonwrapping_leg_uses_class1(self):
        t = Torus(8, 2)
        r = DOR(t, 2)
        cands = r.route(0, mkpkt(0, 2))  # two hops +x, never wraps
        assert cands[0].vcs == (1,)

    def test_wrapping_leg_uses_class0_then_class1(self):
        t = Torus(8, 2)
        r = DOR(t, 2)
        # 2 -> 7 is distance 3 going -x through the wrap at x=0.
        pkt = mkpkt(2, 7)
        c1 = r.route(2, pkt)  # lands on 1: still wraps ahead -> class 0
        assert c1[0].vcs == (0,)
        c2 = r.route(1, pkt)  # lands on 0: wrap still ahead -> class 0
        assert c2[0].vcs == (0,)
        c3 = r.route(0, pkt)  # crossing hop lands on 7 -> class 1
        assert c3[0].vcs == (1,)

    def test_ring_routes(self):
        ring = Ring(16)
        r = DOR(ring, 2)
        for src, dst in [(0, 8), (15, 1), (3, 3)]:
            path = walk(r, ring, mkpkt(src, dst))
            assert path[-1] == dst


class TestValiant:
    def test_two_phases_via_intermediate(self):
        m = Mesh(8, 2)
        r = Valiant(m, 2, seed=3)
        pkt = mkpkt(0, 63)
        r.on_inject(pkt)
        assert pkt.intermediate is not None
        inter = pkt.intermediate
        path = walk(r, m, pkt)
        assert path[-1] == 63
        assert inter in path
        assert pkt.phase == 1

    def test_phase_vc_classes(self):
        m = Mesh(8, 2)
        r = Valiant(m, 4, seed=3)
        pkt = mkpkt(0, 63)
        r.on_inject(pkt)
        pkt.intermediate = 9  # force a known intermediate off the route start
        cands = r.route(0, pkt)
        assert cands[0].vcs == (0, 1)  # phase 0 -> low class
        pkt.phase = 1
        cands = r.route(9, pkt)
        assert cands[0].vcs == (2, 3)  # phase 1 -> high class

    def test_hops_exceed_minimal_for_same_row_pair(self):
        # 0 -> 7 is a same-row pair: most intermediates lie off the row and
        # cost extra hops, so VAL's average path is longer than minimal.
        m = Mesh(8, 2)
        r = Valiant(m, 2, seed=5)
        total = 0
        for pid in range(50):
            pkt = mkpkt(0, 7, pid)
            r.on_inject(pkt)
            total += len(walk(r, m, pkt)) - 1
        assert total / 50 > m.min_hops(0, 7)

    def test_corner_to_corner_stays_minimal_fig12(self):
        # Paper Fig. 12: for the transpose worst-case corner pair, every
        # intermediate falls inside the minimal quadrant (the whole mesh),
        # so VAL degenerates to minimal routing — the reason VAL's higher
        # zero-load latency vanishes in worst-case (closed-loop) metrics.
        m = Mesh(8, 2)
        r = Valiant(m, 2, seed=5)
        for pid in range(30):
            pkt = mkpkt(7, 56, pid)  # (7,0) -> (0,7): transpose corner pair
            r.on_inject(pkt)
            path = walk(r, m, pkt)
            assert len(path) - 1 == m.min_hops(7, 56)

    def test_rejects_wrapped_topologies(self):
        with pytest.raises(TypeError):
            Valiant(Torus(4, 2), 2)

    def test_deterministic_per_seed(self):
        m = Mesh(8, 2)
        a = Valiant(m, 2, seed=11)
        b = Valiant(m, 2, seed=11)
        pa, pb = mkpkt(0, 63), mkpkt(0, 63)
        a.on_inject(pa)
        b.on_inject(pb)
        assert pa.intermediate == pb.intermediate


class TestROMM:
    def test_intermediate_in_minimal_quadrant(self):
        m = Mesh(8, 2)
        r = ROMM(m, 2, seed=7)
        src, dst = 9, 54  # (1,1) -> (6,6)
        for pid in range(40):
            pkt = mkpkt(src, dst, pid)
            r.on_inject(pkt)
            ix, iy = m.coords(pkt.intermediate)
            assert 1 <= ix <= 6 and 1 <= iy <= 6

    def test_route_stays_minimal(self):
        m = Mesh(8, 2)
        r = ROMM(m, 2, seed=7)
        for pid in range(30):
            pkt = mkpkt(9, 54, pid)
            r.on_inject(pkt)
            path = walk(r, m, pkt)
            assert path[-1] == 54
            assert len(path) - 1 == m.min_hops(9, 54)

    def test_rejects_wrapped_topologies(self):
        with pytest.raises(TypeError):
            ROMM(Torus(4, 2), 2)


class TestMinimalAdaptive:
    def test_candidates_cover_productive_dims_plus_escape(self):
        m = Mesh(8, 2)
        r = MinimalAdaptive(m, 4)
        cands = r.route(0, mkpkt(0, 63))
        assert len(cands) == 3  # +x adaptive, +y adaptive, escape
        assert cands[0].vcs == (1, 2, 3)
        assert cands[-1].escape
        assert cands[-1].vcs == (0,)

    def test_single_productive_dim(self):
        m = Mesh(8, 2)
        r = MinimalAdaptive(m, 2)
        cands = r.route(0, mkpkt(0, 7))
        ports = {c.out_port for c in cands}
        assert ports == {0}  # only +x (adaptive and escape share the port)

    def test_all_candidates_minimal(self):
        m = Mesh(8, 2)
        r = MinimalAdaptive(m, 2)
        pkt = mkpkt(0, 63)
        for cand in r.route(0, pkt):
            ch = m.channel(0, cand.out_port)
            assert m.min_hops(ch.dst, 63) == m.min_hops(0, 63) - 1

    def test_escape_walk_reaches_destination(self):
        m = Mesh(8, 2)
        r = MinimalAdaptive(m, 2)
        pkt = mkpkt(0, 63)
        node = 0
        for _ in range(100):
            cands = r.route(node, pkt)
            if cands[0].out_port == m.local_port:
                break
            ch = m.channel(node, cands[-1].out_port)  # always take escape
            node = ch.dst
        assert node == 63


class TestRegistry:
    def test_builds_each(self):
        mesh = Mesh(8, 2)
        for name, cls in (("dor", DOR), ("val", Valiant), ("ma", MinimalAdaptive), ("romm", ROMM)):
            alg = build_routing(NetworkConfig(routing=name), mesh)
            assert isinstance(alg, cls)

    def test_randomized_algorithms_seeded_from_config(self):
        mesh = Mesh(8, 2)
        a = build_routing(NetworkConfig(routing="val", seed=9), mesh)
        b = build_routing(NetworkConfig(routing="val", seed=9), mesh)
        pa, pb = mkpkt(0, 63), mkpkt(0, 63)
        a.on_inject(pa)
        b.on_inject(pb)
        assert pa.intermediate == pb.intermediate


class TestStaticRouteRows:
    """The static-row contract of RoutingAlgorithm (mesh and balanced-dateline DOR)."""

    @pytest.mark.parametrize(
        "topo",
        [
            pytest.param(Mesh(4, 2), id="4-2"),
            pytest.param(Mesh(8, 2), id="8-2"),
            pytest.param(Mesh(3, 3), id="3-3"),
            pytest.param(Torus(4, 2), id="torus-4-2"),
            pytest.param(Torus(5, 2), id="torus-5-2"),
            pytest.param(Ring(8), id="ring-8"),
        ],
    )
    def test_row_entry_is_what_route_returns(self, topo):
        r = DOR(topo, 2)
        assert r.static_rows
        for node in range(topo.num_nodes):
            row = r.static_row(node)
            assert len(row) == topo.num_nodes
            for dst in range(topo.num_nodes):
                # The source must not matter: vary it with the destination.
                assert row[dst] is r.route(node, mkpkt((dst + node) % topo.num_nodes, dst))

    def test_rows_are_shared_across_builds_of_one_shape(self):
        a, b = DOR(Mesh(4, 2), 2), DOR(Mesh(4, 2), 2)
        assert a.static_row(5) is b.static_row(5)
        assert a.static_row(5) is not DOR(Mesh(4, 2), 4).static_row(5)
        t = DOR(Torus(4, 2), 2)
        assert t.static_row(5) is DOR(Torus(4, 2), 2).static_row(5)
        assert t.static_row(5) is not a.static_row(5)
        # strict and balanced never share tables, whatever strict's rows hold
        assert t._rows is not DOR(Torus(4, 2), 2, dateline_mode="strict")._rows

    @pytest.mark.parametrize(
        "kw",
        [
            dict(topology="torus", num_vcs=4, dateline="strict"),
            dict(routing="val", num_vcs=4),
            dict(routing="romm", num_vcs=4),
            dict(routing="ma", num_vcs=4),
        ],
        ids=lambda kw: "-".join(map(str, kw.values())),
    )
    def test_non_static_routing_gets_no_row(self, kw):
        from repro.network import Network

        net = Network(NetworkConfig(k=4, n=2, seed=3, **kw))
        assert not net.routing.static_rows
        with pytest.raises(NotImplementedError):
            net.routing.static_row(0)
        for i in range(16):
            net.offer(net.make_packet(i, 15 - i, 2))
        net.run(200)
        assert net.is_idle()
        assert all(router.row is None for router in net.routers)

    def test_mesh_dor_routers_fetch_their_row_on_first_use(self):
        from repro.network import Network

        net = Network(NetworkConfig(k=4, n=2, seed=3))
        assert all(router.row is None for router in net.routers)
        net.offer(net.make_packet(0, 3, 1))
        net.run(50)
        assert net.is_idle()
        on_path = {0, 1, 2, 3}
        for router in net.routers:
            if router.node in on_path:
                assert router.row is net.routing.static_row(router.node)
            else:
                assert router.row is None
