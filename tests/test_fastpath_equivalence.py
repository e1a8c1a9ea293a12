"""Equivalence suite: the hot path must be bit-identical to the dense loop.

Two independent accelerations share one correctness bar:

* **ready-cycle router gating** — the network steps only routers holding a
  head flit that has cleared its pipeline (``Router.wake``) instead of
  iterating all of them every cycle, and
* **idle-cycle fast-forward** — the engine jumps the clock across cycles
  during which the (idle) network provably does nothing.

Both are exercised by default; setting ``REPRO_DISABLE_FAST_FORWARD=1``
forces the dense engine loop through unmodified drivers, and zeroing every
router's ``wake`` before each cycle forces every occupied router to step.  Every test here
runs a driver both ways and asserts *exact* equality of every observable —
latency arrays, per-node distributions, runtimes, probe records, packet
counts — across randomized configurations and with the full instrumentation
stack (probes, watchdog, invariant checker, link faults) enabled.

The golden-record suite (``test_golden_records.py``) independently pins the
fast path to pre-acceleration numbers; this file additionally covers
configurations (bursty traffic, delayed replies, OS timers, faults) beyond
the goldens.
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


@pytest.fixture
def both_paths(monkeypatch):
    """Run a zero-arg driver callable on the fast and the dense path."""

    def run(fn):
        monkeypatch.delenv("REPRO_DISABLE_FAST_FORWARD", raising=False)
        fast = fn()
        monkeypatch.setenv("REPRO_DISABLE_FAST_FORWARD", "1")
        dense = fn()
        monkeypatch.delenv("REPRO_DISABLE_FAST_FORWARD", raising=False)
        return fast, dense

    return run


def _assert_openloop_equal(a, b):
    assert a.num_measured == b.num_measured
    assert a.avg_latency == b.avg_latency
    assert a.worst_node_latency == b.worst_node_latency
    assert a.throughput == b.throughput
    assert a.avg_hops == b.avg_hops
    assert a.saturated == b.saturated
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.per_node_latency, b.per_node_latency, equal_nan=True)
    assert a.probe_records == b.probe_records


class TestOpenLoopEquivalence:
    @pytest.mark.parametrize("rate", [0.005, 0.05, 0.30])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_mesh_rates(self, both_paths, rate, seed):
        cfg = NetworkConfig(k=4, n=2, seed=seed)

        def go():
            sim = OpenLoopSimulator(cfg, warmup=150, measure=300, drain_limit=4000)
            return sim.run(rate)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)

    def test_bursty_traffic(self, both_paths):
        # MarkovOnOff produces long idle stretches per node but correlated
        # bursts — the arrivals draw itself is stateful, so lookahead must
        # replay it exactly.
        cfg = NetworkConfig(k=4, n=2, seed=11)

        def go():
            sim = OpenLoopSimulator(
                cfg,
                warmup=150,
                measure=300,
                drain_limit=4000,
                process=lambda n, r: MarkovOnOff.for_average_rate(n, r),
            )
            return sim.run(0.02)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)

    def test_with_probes_watchdog_invariants(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=3)

        def go():
            sim = OpenLoopSimulator(
                cfg,
                warmup=100,
                measure=250,
                drain_limit=3000,
                probes=ProbeSet(build_probes("all"), interval=64),
                watchdog=Watchdog(window=500),
                check_invariants=True,
            )
            return sim.run(0.01)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)
        # Window records must exist and match record-for-record.
        assert len(fast.probe_records) > 1

    def test_with_faults(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=5, faults="links:2")

        def go():
            sim = OpenLoopSimulator(
                cfg,
                warmup=150,
                measure=300,
                drain_limit=5000,
                watchdog=Watchdog(window=1000),
            )
            return sim.run(0.02)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)

    def test_8x8_low_load_skipped_cycle_count(self, both_paths):
        # Near-zero load on the paper's mesh: ~91% of cycles are provably
        # idle.  The skipped-cycle count is a pure function of the seed, so
        # pinning it guards the fast path's reach without a timer.
        cfg = NetworkConfig(k=8, n=2, seed=7)
        nets = []

        def go():
            sim = OpenLoopSimulator(
                cfg,
                warmup=10_000,
                measure=20_000,
                drain_limit=30_000,
                network_factory=lambda c: nets.append(Network(c)) or nets[-1],
            )
            return sim.run(0.0001)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)
        assert [net.now for net in nets] == [30_000, 30_000]
        assert nets[0].fast_forwarded_cycles == 27_317
        assert nets[1].fast_forwarded_cycles == 0

    @pytest.mark.parametrize("topology", ["ring", "torus"])
    def test_other_topologies(self, both_paths, topology):
        cfg = NetworkConfig(topology=topology, k=8, n=1 if topology == "ring" else 2, seed=2)

        def go():
            sim = OpenLoopSimulator(cfg, warmup=100, measure=200, drain_limit=3000)
            return sim.run(0.02)

        fast, dense = both_paths(go)
        _assert_openloop_equal(fast, dense)


def _assert_batch_equal(a, b):
    assert a.runtime == b.runtime
    assert a.throughput == b.throughput
    assert a.completed == b.completed
    assert a.total_requests == b.total_requests
    assert a.os_requests == b.os_requests
    assert a.avg_request_latency == b.avg_request_latency
    assert np.array_equal(a.node_finish, b.node_finish)
    assert a.probe_records == b.probe_records


class TestBatchEquivalence:
    def test_baseline(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        fast, dense = both_paths(
            lambda: BatchSimulator(cfg, batch_size=30, max_outstanding=2).run()
        )
        _assert_batch_equal(fast, dense)

    def test_low_nar_engages_fast_forward(self, both_paths):
        # nar=0.02 leaves long gated idle gaps between injections — exactly
        # the case fast-forward accelerates.  Capture the network to prove
        # the fast path really skipped cycles (a vacuous pass would hide a
        # wiring bug), then check bit-identity.
        cfg = NetworkConfig(k=4, n=2, seed=13)
        nets = []

        def go():
            sim = BatchSimulator(
                cfg,
                batch_size=10,
                max_outstanding=1,
                nar=0.02,
                network_factory=lambda c: nets.append(Network(c)) or nets[-1],
            )
            return sim.run()

        fast, dense = both_paths(go)
        _assert_batch_equal(fast, dense)
        assert nets[0].fast_forwarded_cycles > 0
        assert nets[1].fast_forwarded_cycles == 0

    def test_delayed_replies(self, both_paths):
        # FixedReply(40) parks every reply in the pending-replies buckets
        # while the network idles: the lookahead must stop at each release.
        cfg = NetworkConfig(k=4, n=2, seed=9)
        fast, dense = both_paths(
            lambda: BatchSimulator(
                cfg,
                batch_size=15,
                max_outstanding=1,
                reply_model=FixedReply(40),
            ).run()
        )
        _assert_batch_equal(fast, dense)

    def test_probabilistic_replies_and_nar(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=17)
        fast, dense = both_paths(
            lambda: BatchSimulator(
                cfg,
                batch_size=12,
                max_outstanding=2,
                nar=0.1,
                reply_model=ProbabilisticReply(
                    l2_latency=20, memory_latency=300, l2_miss_rate=0.1
                ),
            ).run()
        )
        _assert_batch_equal(fast, dense)

    def test_os_model_timer_interrupts(self, both_paths):
        # Timer ticks add OS mini-batches mid-run: the lookahead must never
        # jump across a tick.
        cfg = NetworkConfig(k=4, n=2, seed=21)
        os_model = OSModel(
            static_fraction=0.25, timer_rate=0.01, timer_batch=2, os_nar=0.5
        )
        fast, dense = both_paths(
            lambda: BatchSimulator(
                cfg,
                batch_size=10,
                max_outstanding=1,
                nar=0.05,
                os_model=os_model,
                reply_model=FixedReply(25),
            ).run()
        )
        _assert_batch_equal(fast, dense)

    def test_with_probes_and_invariants(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=23)
        fast, dense = both_paths(
            lambda: BatchSimulator(
                cfg,
                batch_size=20,
                max_outstanding=2,
                nar=0.3,
                probes=ProbeSet(build_probes("all"), interval=50),
                watchdog=Watchdog(window=2000),
                check_invariants=True,
            ).run()
        )
        _assert_batch_equal(fast, dense)
        assert len(fast.probe_records) > 1


class TestBarrierEquivalence:
    def test_rounds(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        fast, dense = both_paths(
            lambda: BarrierSimulator(cfg, batch_size=25, rounds=3).run()
        )
        assert fast.runtime == dense.runtime
        assert fast.throughput == dense.throughput
        assert np.array_equal(fast.round_times, dense.round_times)


class TestTraceEquivalence:
    def test_sparse_trace_jumps_gaps(self, both_paths):
        # Records thousands of cycles apart: fast-forward jumps straight to
        # each timestamp, and the replay must land every packet identically.
        records = [
            TraceRecord(0, 0, 15, 4),
            TraceRecord(3000, 5, 10, 2),
            TraceRecord(3001, 6, 9, 1),
            TraceRecord(9000, 15, 0, 8),
        ]
        trace = Trace(records, num_nodes=16)
        cfg = NetworkConfig(k=4, n=2, seed=7)
        fast, dense = both_paths(lambda: TraceDrivenSimulator(cfg, trace).run())
        assert fast.runtime == dense.runtime
        assert fast.avg_latency == dense.avg_latency
        assert fast.packets == dense.packets
        assert fast.throughput == dense.throughput

    def test_8x8_sparse_trace_skipped_cycle_count(self, both_paths):
        # 40 packets in 8 widely spaced clusters over ~200k cycles: replay
        # would spend nearly all its wall time stepping an empty fabric.
        # All but 239 of the 175029 cycles must be skipped, exactly.
        records = [
            TraceRecord(
                burst * 25_000 + 3 * i, (7 * burst + i) % 64, (11 * burst + 5 * i) % 64, 4
            )
            for burst in range(8)
            for i in range(5)
        ]
        trace = Trace(records, num_nodes=64)
        cfg = NetworkConfig(k=8, n=2, seed=7)
        nets = []

        def go():
            return TraceDrivenSimulator(
                cfg,
                trace,
                network_factory=lambda c: nets.append(Network(c)) or nets[-1],
            ).run()

        fast, dense = both_paths(go)
        assert fast.runtime == dense.runtime
        assert fast.avg_latency == dense.avg_latency
        assert fast.packets == dense.packets == 40
        assert [net.now for net in nets] == [175_029, 175_029]
        assert nets[0].fast_forwarded_cycles == 174_790
        assert nets[1].fast_forwarded_cycles == 0

    def test_captured_trace(self, both_paths):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        trace = capture_openloop_trace(cfg, 0.02, cycles=800)

        def go():
            return TraceDrivenSimulator(
                cfg, trace, probes=ProbeSet(build_probes("inflight,channel"), interval=100)
            ).run()

        fast, dense = both_paths(go)
        assert fast.runtime == dense.runtime
        assert fast.avg_latency == dense.avg_latency
        assert fast.packets == dense.packets
        assert fast.probe_records == dense.probe_records


class TestFirstArrivalBlock:
    """Bernoulli's vectorized lookahead must replay the generic one's stream.

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
