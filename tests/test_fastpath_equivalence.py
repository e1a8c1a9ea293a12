"""Ready-cycle router gating, the active-set scheduler, and Bernoulli's
block draw.

Ready-cycle gating (the network steps only routers holding a head flit
that has cleared its pipeline, ``Router.wake``) is checked against a
forced-awake run; the active router set against the routers' busy VCs;
``Bernoulli.first_arrival_block`` against the generic per-cycle scan.  The
sparse-regime golden records that used to live here are in
``test_golden_records.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.network.network import Network
from repro.traffic.process import Bernoulli, InjectionProcess


class TestFirstArrivalBlock:
    """Bernoulli's vectorized scan must replay the generic one's stream.

    The block-draw implementation rewinds the bit-generator state on a
    mid-block hit, so the offset, the arrivals, AND the generator position
    afterwards must all match a per-cycle ``arrivals()`` loop exactly.
    """

    @pytest.mark.parametrize("rate", [0.0, 0.0004, 0.01, 0.2])
    @pytest.mark.parametrize("limit", [1, 7, 64, 700, 5000])
    def test_matches_generic_scan(self, rate, limit):
        proc = Bernoulli(16, rate)
        g_fast = np.random.default_rng(42)
        g_ref = np.random.default_rng(42)
        fast = proc.first_arrival_block(g_fast, limit)
        ref = InjectionProcess.first_arrival_block(proc, g_ref, limit)
        assert fast[0] == ref[0]
        if ref[1] is None:
            assert fast[1] is None
        else:
            assert np.array_equal(fast[1], ref[1])
        # Stream position afterwards must be identical: the next draws agree.
        assert np.array_equal(g_fast.random(8), g_ref.random(8))

    def test_consecutive_scans_resume_stream(self):
        # Repeated lookahead calls walk the stream exactly like a dense loop.
        proc = Bernoulli(16, 0.003)
        g_fast = np.random.default_rng(7)
        g_ref = np.random.default_rng(7)
        for _ in range(5):
            fast = proc.first_arrival_block(g_fast, 2000)
            ref = InjectionProcess.first_arrival_block(proc, g_ref, 2000)
            assert fast[0] == ref[0]
        assert np.array_equal(g_fast.random(8), g_ref.random(8))


class TestActiveSetScheduling:
    """The active-set step is always on; pin its bookkeeping directly."""

    def test_active_set_matches_busy_routers(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        net = Network(cfg)
        for i in range(6):
            net.offer(net.make_packet(i, 15 - i, 4))
        for _ in range(300):
            net.step()
            active = net._active_routers
            busy = {r.node for r in net.routers if r.busy}
            # Routers may linger one pruning pass, but never the reverse:
            # a busy router absent from the active set would stall flits.
            assert busy <= active
            for node in active:
                router = net.routers[node]
                assert all(
                    bool(router.ivcs[i].fifo) for i in router.busy
                )
            if net.is_idle():
                break
        assert net.is_idle()
        assert net.total_packets_delivered == 6

    def test_long_run_drains_active_set(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        sim = OpenLoopSimulator(cfg, warmup=100, measure=200, drain_limit=3000)
        res = sim.run(0.1)
        assert res.num_measured > 0


def _drive(cfg: NetworkConfig, *, force_awake: bool) -> dict:
    """Seeded traffic for 120 cycles, then drain; every observable counter.

    With ``force_awake`` each router's ``wake`` is zeroed before every
    cycle, so the gate never skips one — after asserting that any router
    the gate was about to skip indeed holds no ready head flit.
    """
    net = Network(cfg)
    gen = np.random.default_rng(cfg.seed)
    n = net.num_nodes
    num_classes = len(cfg.classes)
    packets = []
    for cycle in range(1500):
        if cycle < 120:
            for src in np.flatnonzero(gen.random(n) < 0.25).tolist():
                dst = (src + 1 + int(gen.integers(0, n - 1))) % n
                pkt = net.make_packet(
                    src,
                    dst,
                    int(gen.integers(1, 5)),
                    traffic_class=int(gen.integers(0, num_classes)),
                )
                packets.append(pkt)
                net.offer(pkt)
        elif net.is_idle():
            break
        if force_awake:
            now = net.now
            for router in net.routers:
                if router.wake > now:
                    assert not any(
                        ivc.fifo and ivc.fifo[0][2] <= now for ivc in router.ivcs
                    ), f"cycle {now}: gate would skip router {router.node}"
                router.wake = 0
        net.step()
    assert net.is_idle()
    return {
        "cycles": net.now,
        "packets": [(p.inject_time, p.deliver_time, p.hops) for p in packets],
        "flit_hops": net.total_flit_traversals,
        "flits_delivered": net.total_flits_delivered,
        "packets_delivered": net.total_packets_delivered,
        "injection_stalls": net.injection_stalls,
        "ejections": net.flit_ejections.tolist(),
        "injections": net.flit_injections.tolist(),
    }


class TestReadyCycleGating:
    """Skipping routers with ``wake > now`` must not change a single event."""

    @pytest.mark.parametrize("arbitration", ["round_robin", "age", "priority", "weighted"])
    def test_forced_awake_runs_are_identical(self, arbitration):
        classes = "user+os:priority=1:weight=3" if arbitration in ("priority", "weighted") else None
        for router_delay in (1, 2, 4):
            for credit_delay in (0, 1, 2):
                for num_vcs in (2, 8):
                    kw = dict(classes=classes) if classes else {}
                    cfg = NetworkConfig(
                        k=4,
                        n=2,
                        seed=11 * router_delay + credit_delay,
                        router_delay=router_delay,
                        credit_delay=credit_delay,
                        num_vcs=num_vcs,
                        vc_buffer_size=2,
                        arbitration=arbitration,
                        **kw,
                    )
                    gated = _drive(cfg, force_awake=False)
                    forced = _drive(cfg, force_awake=True)
                    assert gated == forced, (router_delay, credit_delay, num_vcs)

    def test_gate_skips_routers_behind_a_deep_pipeline(self, monkeypatch):
        """At tr=4 a lone flit keeps its router asleep three cycles a hop."""
        from repro.network.router import Router

        stepped = []
        step = Router.step
        monkeypatch.setattr(
            Router,
            "step",
            lambda self, now, net: (stepped.append(self.node), step(self, now, net)),
        )
        net = Network(NetworkConfig(k=4, n=2, router_delay=4))
        net.offer(net.make_packet(0, 3, 1))
        while not net.is_idle():
            net.step()
        assert stepped == [0, 1, 2, 3]  # one RC/VA/SA/ST pass per hop
