"""Golden-record regression tests for the unified simulation engine.

The first values here were captured from the pre-engine drivers (each
owning its own hand-rolled cycle loop) immediately before they were
refactored onto ``repro.core.engine.SimulationEngine``; later classes say
where their values come from.  The contract is that seeded results are
*bit-identical*, so these assert exact equality — scalar counters with
``==``, float statistics with ``==``, and whole arrays via a sha256 digest
of their raw bytes.  The sparse-regime classes at the bottom pin the runs
that leave most cycles idle.

If one of these fails, the engine's per-cycle order of operations (stop
check -> inject -> step -> deliver) or a driver's workload has drifted from
the historical drivers; that is a behaviour change, not a tolerance issue.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.barrier import BarrierSimulator
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.core.reply import FixedReply, ProbabilisticReply
from repro.core.resilience import InvariantChecker, Watchdog
from repro.core.tracedriven import (
    Trace,
    TraceDrivenSimulator,
    TraceRecord,
    capture_batch_trace,
    capture_openloop_trace,
)
from repro.network.factory import build_network
from repro.network.network import Network
from repro.traffic.process import MarkovOnOff


def digest(arr) -> str:
    """First 16 hex chars of sha256 over the array's raw bytes."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@pytest.fixture
def cfg() -> NetworkConfig:
    return NetworkConfig(k=4, n=2, seed=7)


BACKENDS = ("object", "vectorized")


class TestOpenLoopGolden:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_run_bit_identical(self, cfg, backend):
        res = OpenLoopSimulator(
            cfg.with_(backend=backend), warmup=200, measure=400, drain_limit=4000
        ).run(0.15)
        assert res.num_measured == 961
        assert res.avg_latency == 6.45681581685744
        assert res.worst_node_latency == 7.938461538461539
        assert res.throughput == 0.1509375
        assert res.avg_hops == 2.660770031217482
        assert res.saturated is False
        assert digest(res.latencies) == "f37300b4a16e0db9"
        assert digest(res.per_node_latency) == "24b418683089b767"


class TestTopologyGolden:
    """Torus and ring goldens, pinned for both backends.

    Captured from the object backend at the commit introducing the
    vectorized backend; both backends must reproduce them bit-exactly, so
    any drift in the dateline VC classes or wrap-around routing — on either
    implementation — fails here.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torus_balanced_dateline(self, backend):
        cfg = NetworkConfig(topology="torus", k=4, n=2, seed=7, backend=backend)
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.15)
        assert res.num_measured == 961
        assert res.avg_latency == 7.502601456815817
        assert res.throughput == 0.15046875
        assert res.avg_hops == 2.1238293444328824
        assert digest(res.latencies) == "12677a27bd26b03c"
        assert digest(res.per_node_latency) == "1395e92d74df763f"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torus_strict_dateline(self, backend):
        cfg = NetworkConfig(
            topology="torus", k=4, n=2, seed=7, dateline="strict", backend=backend
        )
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.15)
        assert res.num_measured == 961
        assert res.avg_latency == 7.49843912591051
        assert res.throughput == 0.15046875
        assert digest(res.latencies) == "079b79b04f72e189"
        assert digest(res.per_node_latency) == "2077a8405b4acd53"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ring(self, backend):
        cfg = NetworkConfig(topology="ring", k=4, n=2, seed=7, backend=backend)
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.15)
        assert res.num_measured == 961
        assert res.avg_latency == 14.183142559833506
        assert res.throughput == 0.15015625
        assert res.avg_hops == 4.235171696149844
        assert digest(res.latencies) == "96735525268ecb6a"
        assert digest(res.per_node_latency) == "fcb8ce3ed1b1f3ab"


class TestClosedLoopGolden:
    def test_baseline_batch(self, cfg):
        res = BatchSimulator(cfg, batch_size=30, max_outstanding=2).run()
        assert res.completed is True
        assert res.runtime == 271
        assert res.throughput == 0.22140221402214022
        assert res.total_requests == 480
        assert res.avg_request_latency == 6.6375
        assert digest(res.node_finish) == "16e05388a4dbcb4e"

    def test_enhanced_models(self, cfg):
        """NAR gating + fixed reply latency + OS background traffic."""
        res = BatchSimulator(
            cfg,
            batch_size=20,
            max_outstanding=2,
            nar=0.4,
            reply_model=FixedReply(25),
            os_model=OSModel(
                static_fraction=0.2, timer_rate=0.002, timer_batch=3, os_nar=0.6
            ),
        ).run()
        assert res.completed is True
        assert res.runtime == 619
        assert res.throughput == 0.08299676898222941
        assert res.total_requests == 411
        assert res.os_requests == 91
        assert res.avg_request_latency == 6.591240875912408
        assert digest(res.node_finish) == "635aaa20a967faf3"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_os_model_priority(self, backend):
        """The OS model under strict priority: kernel packets leave a node's
        source queue ahead of its user backlog and win the switch over user
        packets.  The same run under round-robin takes 223 cycles."""
        cfg = NetworkConfig(k=4, n=2, seed=7, backend=backend, arbitration="priority")
        res = BatchSimulator(
            cfg,
            batch_size=20,
            max_outstanding=4,
            os_model=OSModel(
                static_fraction=0.3, timer_rate=0.004, timer_batch=4, os_nar=0.6
            ),
            reply_model=FixedReply(10),
        ).run()
        assert res.completed is True
        assert res.runtime == 209
        assert res.total_requests == 416
        assert res.os_requests == 96
        assert res.avg_request_latency == 7.2139423076923075
        assert digest(res.node_finish) == "416d10f9b16762a4"


class TestBarrierGolden:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_barrier(self, backend):
        """One b-packet burst per node, run until the fabric drains."""
        cfg = NetworkConfig(k=4, n=2, seed=7, backend=backend)
        res = BarrierSimulator(cfg, batch_size=40).run()
        assert res.completed is True
        assert res.runtime == 72
        assert res.throughput == 0.5555555555555556


class TestTraceDrivenGolden:
    def test_openloop_trace_replay(self, cfg):
        trace = capture_openloop_trace(cfg, 0.12, cycles=600, seed=11)
        assert len(trace) == 1138
        assert trace.total_flits == 1138
        res = TraceDrivenSimulator(cfg, trace).run()
        assert res.completed is True
        assert res.runtime == 609
        assert res.packets == 1138
        assert res.avg_latency == 6.451669595782074
        assert res.throughput == 0.11678981937602627

    def test_batch_trace_replay(self, cfg):
        trace = capture_batch_trace(cfg, batch_size=15, max_outstanding=2, seed=5)
        assert len(trace) == 480
        res = TraceDrivenSimulator(cfg, trace).run()
        assert res.runtime == 158
        assert res.avg_latency == 6.516666666666667


class TestExecDrivenGolden:
    def test_cmp_real_network(self):
        from repro.execdriven import BENCHMARKS, CmpSystem

        spec = BENCHMARKS["blackscholes"](3000)
        res = CmpSystem(spec, timer_interval=10000, seed=3).run()
        assert res.completed is True
        assert res.cycles == 5134
        assert res.instructions == 49776
        assert res.total_flits == 2590
        assert res.requests == 518
        assert res.flits_by_class == {0: 1675, 1: 915}
        assert res.requests_by_kind == {
            "user": 335,
            "kernel_burst": 183,
            "kernel_timer": 0,
        }
        assert res.l2_accesses == 518
        assert res.l2_misses == 1
        assert res.interrupts == 0
        assert res.mshr_stall_cycles == 0
        assert res.kernel_instructions == 1776
        assert digest(res.traffic_matrix) == "1e67db3c5a0a3626"
        assert digest(res.timeline) == "a0be003413538cba"
        assert digest(res.logical_matrix) == "7728ef1cb37a4fd9"

    def test_cmp_ideal_network(self):
        from repro.execdriven import BENCHMARKS, CmpSystem

        res = CmpSystem(BENCHMARKS["fft"](2000), ideal=True, seed=3).run()
        assert res.completed is True
        assert res.cycles == 11798
        assert res.total_flits == 5840
        assert res.requests == 1168
        assert digest(res.traffic_matrix) == "83a6c0d698c3f327"


#: (benchmark, tr, extra) -> (cycles, (user, kernel_burst, kernel_timer)
#: requests, l2_misses, mshr_stall_cycles, kernel_instructions, interrupts,
#: traffic, logical and timeline digests).  ``extra`` is a MSHR file of two
#: with half the misses blocking: the one case that stalls on a full file.
CMP_SUITE_GOLDEN = {
    ("blackscholes", 1, ""): (5551, (40, 23, 888), 13, 0, 8976, 5, "6978a1a38148c584", "3d401799f500d822", "a6e419c3ecb62b5a"),
    ("blackscholes", 4, ""): (6748, (33, 22, 900), 13, 0, 8976, 5, "0881b2e499b0975f", "70f1af4bcfd3e35c", "c3d04720e0f4012c"),
    ("lu", 1, ""): (17795, (86, 33, 2133), 56, 0, 21120, 17, "96e3251f1c8b3d8d", "b2450cf31de22926", "9f2d4c99e5dbe047"),
    ("lu", 4, ""): (26116, (77, 29, 2252), 49, 0, 21920, 22, "a4818e484574086e", "c60218066053e4a4", "32ebf541d5812107"),
    ("canneal", 1, ""): (17795, (168, 101, 3116), 149, 0, 30448, 26, "8d64507d7be2b11d", "5a1487c53ce9728b", "ba23d9751f8b2219"),
    ("canneal", 4, ""): (38490, (170, 99, 4251), 183, 0, 40848, 40, "760c73e6dc72a94f", "4bec9a8a22927c18", "8cf0f6b9e373c827"),
    ("fft", 1, ""): (12342, (141, 36, 2444), 160, 0, 24000, 18, "3b4ff4de6210e5d0", "94ccc974a192268a", "fe5f2fe377499e8e"),
    ("fft", 4, ""): (16959, (140, 45, 2628), 173, 0, 26400, 23, "c306342fcb64355d", "d9e364497dc59ae1", "6b3fc3c058b84a68"),
    ("barnes", 1, ""): (7494, (84, 56, 1212), 16, 0, 12528, 8, "47be0ff4bae2648b", "26a35cb56495c071", "898623b09db1387b"),
    ("barnes", 4, ""): (15099, (98, 51, 2056), 39, 0, 20928, 19, "15d5d40e5bc4a679", "88ae85231d0d3b97", "ff1bbf762ed2f9aa"),
    ("canneal", 1, "mshrs=2"): (18222, (174, 86, 2668), 133, 8845, 26448, 23, "eb608e23a99d30a5", "251539815e90b66d", "b4245a4d56d3087d"),
}


class TestCmpSuiteGolden:
    """Every surrogate benchmark at two router delays, with a timer that fires.

    300 instructions per core and a 400-cycle timer: each run takes
    interrupts, issues all three request kinds and finishes well inside
    the per-test budget.  Captured before the CMP's cores drew from
    ``repro.rng.Stream`` and skipped idle cores in ``CmpSystem.inject``;
    both changes had to leave every value here as it was.
    """

    @pytest.mark.parametrize(
        "key", list(CMP_SUITE_GOLDEN), ids=lambda k: "-".join(filter(None, (k[0], f"tr{k[1]}", k[2])))
    )
    def test_run(self, key):
        from repro.config import CmpConfig
        from repro.execdriven import BENCHMARKS, CmpSystem

        name, tr, extra = key
        spec = BENCHMARKS[name](300)
        cfg = CmpConfig(network=CmpConfig().network.with_(router_delay=tr))
        if extra:
            spec = dataclasses.replace(spec, blocking_fraction=0.5)
            cfg = dataclasses.replace(cfg, mshrs=2)
        res = CmpSystem(spec, cfg, timer_interval=400, seed=5).run()
        kinds = res.requests_by_kind
        assert res.completed is True
        assert (
            res.cycles,
            (kinds["user"], kinds["kernel_burst"], kinds["kernel_timer"]),
            res.l2_misses,
            res.mshr_stall_cycles,
            res.kernel_instructions,
            res.interrupts,
            digest(res.traffic_matrix),
            digest(res.logical_matrix),
            digest(res.timeline),
        ) == CMP_SUITE_GOLDEN[key]


class TestObserversDoNotPerturb:
    """Attaching observers must watch, never change, the simulation."""

    def test_openloop_identical_with_observers(self, cfg):
        res = OpenLoopSimulator(
            cfg,
            warmup=200,
            measure=400,
            drain_limit=4000,
            observers=(Watchdog(window=500), InvariantChecker(interval=50)),
        ).run(0.15)
        assert res.avg_latency == 6.45681581685744
        assert res.throughput == 0.1509375
        assert digest(res.latencies) == "f37300b4a16e0db9"

    def test_batch_identical_with_observers(self, cfg):
        res = BatchSimulator(
            cfg,
            batch_size=30,
            max_outstanding=2,
            observers=(Watchdog(window=500), InvariantChecker(interval=64)),
        ).run()
        assert res.runtime == 271
        assert digest(res.node_finish) == "16e05388a4dbcb4e"


class TestInjectionBackpressureGolden:
    """Multi-flit packets under injection backpressure, on both backends.

    Bimodal (1- and 4-flit) packets offered above the 4x4 mesh's saturation:
    a source waits, flit by flit, for room in the injection VC its packet
    streams into, and a new packet for a VC with buffer space.  Captured
    from both backends, which agreed, before ``Network._inject_all`` lost
    its two unreachable branches.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bimodal_above_saturation(self, cfg, backend):
        nets = []
        res = OpenLoopSimulator(
            cfg.with_(backend=backend, packet_size="bimodal"),
            warmup=200,
            measure=400,
            drain_limit=4000,
            network_factory=lambda c: nets.append(build_network(c)) or nets[-1],
        ).run(0.7)
        assert res.num_measured == 1784
        assert res.avg_latency == 80.87331838565022
        assert res.worst_node_latency == 185.36885245901638
        assert res.throughput == 0.60578125
        assert res.avg_hops == 2.7001121076233185
        assert res.saturated is False
        assert digest(res.latencies) == "a0e66313184ebaeb"
        assert digest(res.per_node_latency) == "a59c68c9e45addd6"
        assert [net.injection_stalls for net in nets] == [3649]


# --------------------------------------------------------------------------
# Sparse regimes.  The engine steps every cycle, idle or not; near-zero load
# on the 8x8 mesh, bursty and NAR-gated sources, delayed replies, OS timer
# interrupts and sparse traces are where a change to the per-cycle loop shows
# first.  Captured at the commit before idle-cycle fast-forward was removed,
# where the fast and dense paths agreed on every value.
# --------------------------------------------------------------------------


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


class TestSparseOpenLoopGolden:
    """Open-loop runs that leave most cycles idle, plus observers and bursty
    sources at low load."""

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

    def test_with_watchdog_invariants(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        res = OpenLoopSimulator(
            cfg,
            warmup=100,
            measure=250,
            drain_limit=3000,
            observers=(Watchdog(window=500), InvariantChecker()),
        ).run(0.01)
        assert _openloop(res) == (
            50, 6.14, 10.0, 0.01275, 2.56, False, "b6ea09935c49a34b", "4576160041903b7e",
        )

    def test_8x8_near_zero_load(self):
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


class TestSparseBatchGolden:
    """Batch runs whose NAR gating, reply delays and OS timer interrupts
    leave the fabric idle between injections."""

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_os_model_timer_interrupts(self, backend):
        # Timer ticks add OS mini-batches mid-run.  Under round-robin
        # arbitration a node's source queue is one FIFO, so kernel packets
        # queue behind a user backlog, as in the CMP.
        cfg = NetworkConfig(k=4, n=2, seed=21, backend=backend)
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
            4481, 0.034367328721267576, True, 1232, 1072, 6.424512987012987, "fd228693c3829a73",
        )

    def test_with_watchdog_and_invariants(self):
        cfg = NetworkConfig(k=4, n=2, seed=23)
        res = BatchSimulator(
            cfg,
            batch_size=20,
            max_outstanding=2,
            nar=0.3,
            observers=(Watchdog(window=2000), InvariantChecker()),
        ).run()
        assert _batch(res) == (
            216, 0.18518518518518517, True, 320, 0, 6.715625, "997d8cc0e3a6219d",
        )


class TestSparseTraceGolden:
    """Trace replays with gaps of thousands of cycles, and a captured trace."""

    def test_packets_thousands_of_cycles_apart(self):
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

    def test_8x8_clustered_bursts(self):
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

    def test_captured_trace_replay(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        trace = capture_openloop_trace(cfg, 0.02, cycles=800)
        res = TraceDrivenSimulator(cfg, trace).run()
        assert res.runtime == 806
        assert res.avg_latency == 6.318021201413427
        assert res.packets == 283
        assert res.throughput == 0.021944789081885855
