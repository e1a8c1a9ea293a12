"""Golden-record regression tests for the unified simulation engine.

Every value here was captured from the pre-engine drivers (each owning its
own hand-rolled cycle loop) immediately before they were refactored onto
``repro.core.engine.SimulationEngine``.  The refactor's contract is that
seeded results are *bit-identical*, so these assert exact equality — scalar
counters with ``==``, float statistics with ``==``, and whole arrays via a
sha256 digest of their raw bytes.

If one of these fails, the engine's per-cycle order of operations (phase
transitions -> stop check -> inject -> step -> deliver) has drifted from
the historical drivers; that is a behaviour change, not a tolerance issue.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.barrier import BarrierSimulator
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.core.reply import FixedReply
from repro.core.tracedriven import (
    TraceDrivenSimulator,
    capture_batch_trace,
    capture_openloop_trace,
)


def digest(arr) -> str:
    """First 16 hex chars of sha256 over the array's raw bytes."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def records_digest(records) -> str:
    """First 16 hex chars of sha256 over probe records as sorted-key JSON."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


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


class TestTrafficClassGolden:
    """2-class strict-priority mesh, pinned for both backends.

    Captured from the object backend at the commit introducing first-class
    traffic classes; both backends must reproduce every per-packet latency
    and class id bit-exactly, including the per-class summary views.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_class_priority_mesh(self, backend):
        cfg = NetworkConfig(
            k=4,
            n=2,
            seed=7,
            backend=backend,
            arbitration="priority",
            classes="user:share=3+os:priority=1",
        )
        res = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=4000).run(0.3)
        assert res.num_measured == 1978
        assert res.avg_latency == 6.983822042467138
        assert res.throughput == 0.3078125
        assert res.num_classes == 2
        assert res.per_class_avg_latency.tolist() == [7.06, 6.7447698744769875]
        assert res.per_class_throughput.tolist() == [0.234375, 0.0746875]
        assert digest(res.latencies) == "53d526892db94336"
        assert digest(res.class_ids) == "6bb11aff0dad55bc"


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


class TestBarrierGolden:
    def test_two_rounds(self, cfg):
        res = BarrierSimulator(cfg, batch_size=40, rounds=2).run()
        assert res.completed is True
        assert res.runtime == 142
        assert res.throughput == 0.5633802816901409
        assert res.round_times.tolist() == [72, 142]


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


class TestProbesDoNotPerturb:
    """Attaching probes must observe, never change, the simulation."""

    def test_openloop_identical_with_probes(self, cfg):
        from repro.core.probes import ProbeSet, build_probes

        probes = ProbeSet(build_probes("all"), interval=50)
        res = OpenLoopSimulator(
            cfg, warmup=200, measure=400, drain_limit=4000, probes=probes
        ).run(0.15)
        assert res.avg_latency == 6.45681581685744
        assert res.throughput == 0.1509375
        assert digest(res.latencies) == "f37300b4a16e0db9"
        assert res.probe_records  # and it actually recorded something

    def test_batch_identical_with_probes(self, cfg):
        from repro.core.probes import ProbeSet, build_probes

        probes = ProbeSet(build_probes("channel,vc"), interval=64)
        res = BatchSimulator(
            cfg, batch_size=30, max_outstanding=2, probes=probes
        ).run()
        assert res.runtime == 271
        assert digest(res.node_finish) == "16e05388a4dbcb4e"
        assert res.probe_records
