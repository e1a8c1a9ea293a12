"""Sparse-regime golden records, and the ready-cycle router gate.

The engine steps every cycle, idle or not.  Until idle-cycle fast-forward
was removed, the four ``*Equivalence`` classes ran each driver with and
without it and asserted the two agreed; the regimes they covered — near
zero load on the 8x8 mesh, bursty sources, probes / watchdog / invariants
at low load, a transient link fault, NAR-gated and delayed-reply batch
runs, OS timer interrupts, barrier rounds, sparse and captured traces —
are exactly where a change to the per-cycle loop would show.  They now pin
the values both paths agreed on, captured just before the removal, in
``test_golden_records.py``'s ``==`` / :func:`digest` style.

Ready-cycle gating (the network steps only routers holding a head flit
that has cleared its pipeline, ``Router.wake``) is checked against a
forced-awake run at the bottom of this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.barrier import BarrierSimulator
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.core.probes import ProbeSet, build_probes
from repro.core.reply import FixedReply, ProbabilisticReply
from repro.core.resilience import Watchdog
from repro.core.tracedriven import (
    Trace,
    TraceDrivenSimulator,
    TraceRecord,
    capture_openloop_trace,
)
from repro.network.network import Network
from repro.traffic.process import Bernoulli, InjectionProcess, MarkovOnOff

from .test_golden_records import digest, records_digest


def _openloop(res) -> tuple:
    """num_measured, avg/worst latency, throughput, hops, saturated, digests."""
    return (
        res.num_measured,
        res.avg_latency,
        res.worst_node_latency,
        res.throughput,
        res.avg_hops,
        res.saturated,
        digest(res.latencies),
        digest(res.per_node_latency),
    )


#: (seed, rate) -> _openloop record on the 4x4 mesh, windows 150/300/4000
MESH_RATES = {
    (7, 0.005): (27, 6.2592592592592595, 13.0, 0.005625, 2.6296296296296298, False,
                 "3e507122d5e39059", "28f27276386985da"),
    (19, 0.005): (24, 5.75, 11.0, 0.004791666666666666, 2.375, False,
                  "7873877a3207d36f", "b09d988f5247872b"),
    (7, 0.05): (252, 6.7103174603174605, 8.0, 0.051875, 2.8293650793650795, False,
                "6e982775994994ba", "5e947011a19c5c9a"),
    (19, 0.05): (246, 6.0772357723577235, 8.714285714285714, 0.051875,
                 2.5284552845528454, False, "29365295984017cd", "e76da110b5b1602e"),
    (7, 0.30): (1387, 6.70872386445566, 8.358024691358025, 0.2916666666666667,
                2.6798846431146357, False, "27847a0551e148f5", "440596f8e06fd409"),
    (19, 0.30): (1436, 6.733286908077995, 8.296703296703297, 0.2989583333333333,
                 2.6643454038997216, False, "b299e30155a18b29", "9fd0c884ee2bb6a1"),
}


class TestOpenLoopEquivalence:
    @pytest.mark.parametrize("rate", [0.005, 0.05, 0.30])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_mesh_rates(self, rate, seed):
        cfg = NetworkConfig(k=4, n=2, seed=seed)
        res = OpenLoopSimulator(cfg, warmup=150, measure=300, drain_limit=4000).run(rate)
        assert _openloop(res) == MESH_RATES[seed, rate]

    def test_bursty_traffic(self):
        # MarkovOnOff: long idle stretches per node, correlated bursts, and
        # a stateful arrivals draw.
        cfg = NetworkConfig(k=4, n=2, seed=11)
        res = OpenLoopSimulator(
            cfg,
            warmup=150,
            measure=300,
            drain_limit=4000,
            process=lambda n, r: MarkovOnOff.for_average_rate(n, r),
        ).run(0.02)
        assert _openloop(res) == (
            73, 6.876712328767123, 8.090909090909092, 0.015208333333333334,
            2.6986301369863015, False, "f378f917212d3b58", "59012da7c13a954e",
        )

    def test_with_probes_watchdog_invariants(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        res = OpenLoopSimulator(
            cfg,
            warmup=100,
            measure=250,
            drain_limit=3000,
            probes=ProbeSet(build_probes("all"), interval=64),
            watchdog=Watchdog(window=500),
            check_invariants=True,
        ).run(0.01)
        assert _openloop(res) == (
            50, 6.14, 10.0, 0.01275, 2.56, False, "b6ea09935c49a34b", "4576160041903b7e",
        )
        assert len(res.probe_records) == 6
        assert records_digest(res.probe_records) == "089a54bc53c7a93c"

    def test_with_faults(self):
        cfg = NetworkConfig(k=4, n=2, seed=5, faults="links:2")
        res = OpenLoopSimulator(
            cfg, warmup=150, measure=300, drain_limit=5000, watchdog=Watchdog(window=1000)
        ).run(0.02)
        assert _openloop(res) == (
            86, 6.511627906976744, 10.5, 0.018125, 2.7325581395348837, False,
            "aa29206d5c0ce540", "75913e83bf0cf37d",
        )

    def test_8x8_low_load_skipped_cycle_count(self):
        # Near-zero load on the paper's mesh: ~91% of its 30k cycles idle.
        cfg = NetworkConfig(k=8, n=2, seed=7)
        nets = []
        res = OpenLoopSimulator(
            cfg,
            warmup=10_000,
            measure=20_000,
            drain_limit=30_000,
            network_factory=lambda c: nets.append(Network(c)) or nets[-1],
        ).run(0.0001)
        assert _openloop(res) == (
            117, 11.871794871794872, 22.0, 9.140625e-05, 5.435897435897436, False,
            "5db50942fe63c79f", "c92d0b4712bca7d2",
        )
        assert [net.now for net in nets] == [30_000]

    @pytest.mark.parametrize(
        "topology, expected",
        [
            ("ring", (32, 7.1875, 10.0, 0.02125, 2.0625, False,
                      "12648af7d879bb67", "5303f9b8e01dbe47")),
            ("torus", (229, 13.663755458515285, 22.0, 0.01859375, 4.213973799126638,
                       False, "1949e77222b968d5", "9ea1003b8dd1628c")),
        ],
        ids=["ring", "torus"],
    )
    def test_other_topologies(self, topology, expected):
        cfg = NetworkConfig(topology=topology, k=8, n=1 if topology == "ring" else 2, seed=2)
        res = OpenLoopSimulator(cfg, warmup=100, measure=200, drain_limit=3000).run(0.02)
        assert _openloop(res) == expected


def _batch(res) -> tuple:
    """runtime, throughput, completed, requests (all / OS), latency, digest."""
    return (
        res.runtime,
        res.throughput,
        res.completed,
        res.total_requests,
        res.os_requests,
        res.avg_request_latency,
        digest(res.node_finish),
    )


class TestBatchEquivalence:
    def test_baseline(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        res = BatchSimulator(cfg, batch_size=30, max_outstanding=2).run()
        assert _batch(res) == (
            271, 0.22140221402214022, True, 480, 0, 6.6375, "16e05388a4dbcb4e",
        )

    def test_low_nar_gated_gaps(self):
        # nar=0.02 leaves long gated idle gaps between injections.
        cfg = NetworkConfig(k=4, n=2, seed=13)
        res = BatchSimulator(cfg, batch_size=10, max_outstanding=1, nar=0.02).run()
        assert _batch(res) == (
            784, 0.025510204081632654, True, 160, 0, 6.3625, "313752bde704bb4f",
        )

    def test_delayed_replies(self):
        # FixedReply(40) parks every reply in the pending-replies buckets
        # while the network idles.
        cfg = NetworkConfig(k=4, n=2, seed=9)
        res = BatchSimulator(
            cfg, batch_size=15, max_outstanding=1, reply_model=FixedReply(40)
        ).run()
        assert _batch(res) == (
            904, 0.033185840707964605, True, 240, 0, 6.545833333333333, "de72aa1948d4f254",
        )

    def test_probabilistic_replies_and_nar(self):
        cfg = NetworkConfig(k=4, n=2, seed=17)
        res = BatchSimulator(
            cfg,
            batch_size=12,
            max_outstanding=2,
            nar=0.1,
            reply_model=ProbabilisticReply(l2_latency=20, memory_latency=300, l2_miss_rate=0.1),
        ).run()
        assert _batch(res) == (
            974, 0.024640657084188913, True, 192, 0, 6.302083333333333, "a4a960ed05addec8",
        )

    def test_os_model_timer_interrupts(self):
        # Timer ticks add OS mini-batches mid-run.
        cfg = NetworkConfig(k=4, n=2, seed=21)
        os_model = OSModel(static_fraction=0.25, timer_rate=0.01, timer_batch=2, os_nar=0.5)
        res = BatchSimulator(
            cfg,
            batch_size=10,
            max_outstanding=1,
            nar=0.05,
            os_model=os_model,
            reply_model=FixedReply(25),
        ).run()
        assert _batch(res) == (
            4371, 0.03385952871196522, True, 1184, 1024, 6.329391891891892, "3b015897cabaa900",
        )

    def test_with_probes_and_invariants(self):
        cfg = NetworkConfig(k=4, n=2, seed=23)
        res = BatchSimulator(
            cfg,
            batch_size=20,
            max_outstanding=2,
            nar=0.3,
            probes=ProbeSet(build_probes("all"), interval=50),
            watchdog=Watchdog(window=2000),
            check_invariants=True,
        ).run()
        assert _batch(res) == (
            216, 0.18518518518518517, True, 320, 0, 6.715625, "997d8cc0e3a6219d",
        )
        assert len(res.probe_records) == 5
        assert records_digest(res.probe_records) == "2f3c52262b1885ad"


class TestBarrierEquivalence:
    def test_rounds(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        res = BarrierSimulator(cfg, batch_size=25, rounds=3).run()
        assert res.completed is True
        assert res.runtime == 154
        assert res.throughput == 0.487012987012987
        assert res.round_times.tolist() == [53, 103, 154]


class TestTraceEquivalence:
    def test_sparse_trace_jumps_gaps(self):
        # Records thousands of cycles apart: the replay steps the empty
        # fabric between them and must land every packet on its timestamp.
        records = [
            TraceRecord(0, 0, 15, 4),
            TraceRecord(3000, 5, 10, 2),
            TraceRecord(3001, 6, 9, 1),
            TraceRecord(9000, 15, 0, 8),
        ]
        trace = Trace(records, num_nodes=16)
        res = TraceDrivenSimulator(NetworkConfig(k=4, n=2, seed=7), trace).run()
        assert res.completed is True
        assert res.runtime == 9021
        assert res.avg_latency == 11.75
        assert res.packets == 4
        assert res.throughput == 0.00010392417692051879

    def test_8x8_sparse_trace_skipped_cycle_count(self):
        # 40 packets in 8 widely spaced clusters over ~175k cycles.
        records = [
            TraceRecord(
                burst * 25_000 + 3 * i, (7 * burst + i) % 64, (11 * burst + 5 * i) % 64, 4
            )
            for burst in range(8)
            for i in range(5)
        ]
        trace = Trace(records, num_nodes=64)
        nets = []
        res = TraceDrivenSimulator(
            NetworkConfig(k=8, n=2, seed=7),
            trace,
            network_factory=lambda c: nets.append(Network(c)) or nets[-1],
        ).run()
        assert res.runtime == 175_029
        assert res.avg_latency == 13.425
        assert res.packets == 40
        assert res.throughput == 1.4283347331013718e-05
        assert [net.now for net in nets] == [175_029]

    def test_captured_trace(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        trace = capture_openloop_trace(cfg, 0.02, cycles=800)
        res = TraceDrivenSimulator(
            cfg, trace, probes=ProbeSet(build_probes("inflight,channel"), interval=100)
        ).run()
        assert res.runtime == 806
        assert res.avg_latency == 6.318021201413427
        assert res.packets == 283
        assert res.throughput == 0.021944789081885855
        assert len(res.probe_records) == 9
        assert records_digest(res.probe_records) == "4bdb5ae2c52fc3b5"


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
        "packets": [(p.inject_time, p.deliver_time, p.hops, p.misroutes) for p in packets],
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
    @pytest.mark.parametrize("faults", [None, "link:5>6@40-90"])
    def test_forced_awake_runs_are_identical(self, arbitration, faults):
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
                        faults=faults,
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
