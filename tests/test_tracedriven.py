"""Tests for trace-driven simulation (paper §II methodology #2)."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.tracedriven import (
    Trace,
    TraceDrivenSimulator,
    TraceRecord,
    capture_batch_trace,
    capture_openloop_trace,
)


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, 0, 1, 1)
        with pytest.raises(ValueError):
            TraceRecord(0, 0, 1, 0)


class TestTrace:
    def _records(self):
        return [TraceRecord(0, 0, 5, 1), TraceRecord(3, 1, 2, 4), TraceRecord(3, 2, 0, 1)]

    def test_properties(self):
        tr = Trace(self._records(), num_nodes=16)
        assert len(tr) == 3
        assert tr.duration == 3
        assert tr.total_flits == 6
        assert tr.injection_rate() == pytest.approx(6 / (3 * 16))

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(5, 0, 1, 1), TraceRecord(2, 0, 1, 1)], num_nodes=4)

    def test_validates_node_range(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(0, 0, 99, 1)], num_nodes=16)

    def test_empty_trace(self):
        tr = Trace([], num_nodes=4)
        assert tr.duration == 0
        assert tr.injection_rate() == 0.0


class TestCapture:
    def test_openloop_capture_rate(self, mesh4):
        tr = capture_openloop_trace(mesh4, 0.1, cycles=800)
        assert tr.injection_rate() == pytest.approx(0.1, abs=0.02)
        assert all(r.src != r.dst for r in tr)  # uniform random excludes self

    def test_batch_capture_counts_requests_and_replies(self, mesh4):
        tr = capture_batch_trace(mesh4, batch_size=20, max_outstanding=2)
        assert len(tr) == 2 * 20 * 16  # request + reply per operation

    def test_capture_deterministic(self, mesh4):
        a = capture_batch_trace(mesh4, batch_size=10, max_outstanding=1, seed=5)
        b = capture_batch_trace(mesh4, batch_size=10, max_outstanding=1, seed=5)
        assert a.records == b.records


class TestReplay:
    def test_replay_same_config_reproduces_runtime(self, mesh4):
        """Replaying a batch trace on the SAME configuration lands close to
        the original closed-loop runtime (injection times already encode the
        feedback)."""
        batch = BatchSimulator(mesh4, batch_size=40, max_outstanding=1)
        ref = batch.run()
        tr = capture_batch_trace(mesh4, batch_size=40, max_outstanding=1)
        rep = TraceDrivenSimulator(mesh4, tr).run()
        assert rep.completed
        assert rep.runtime == pytest.approx(ref.runtime, rel=0.05)

    def test_replay_misses_closed_loop_slowdown(self, mesh4):
        """The paper's causality point: replaying a tr=1 trace on a tr=8
        network shows only a small latency increase, while the true
        closed-loop slowdown is ~4x."""
        tr = capture_batch_trace(mesh4, batch_size=30, max_outstanding=1)
        slow_cfg = mesh4.with_(router_delay=8)
        replay_ratio = (
            TraceDrivenSimulator(slow_cfg, tr).run().runtime
            / TraceDrivenSimulator(mesh4, tr).run().runtime
        )
        true_ratio = (
            BatchSimulator(slow_cfg, batch_size=30, max_outstanding=1).run().runtime
            / BatchSimulator(mesh4, batch_size=30, max_outstanding=1).run().runtime
        )
        assert replay_ratio < 1.3
        assert true_ratio > 3.0

    def test_replay_latency_rises_with_tr(self, mesh4):
        """Replay does capture *latency* effects — just not runtime ones."""
        tr = capture_openloop_trace(mesh4, 0.1, cycles=600)
        lat1 = TraceDrivenSimulator(mesh4, tr).run().avg_latency
        lat8 = TraceDrivenSimulator(mesh4.with_(router_delay=8), tr).run().avg_latency
        assert lat8 > 2 * lat1

    def test_node_count_mismatch_rejected(self, mesh4):
        tr = Trace([TraceRecord(0, 0, 1, 1)], num_nodes=16)
        with pytest.raises(ValueError):
            TraceDrivenSimulator(NetworkConfig(k=8, n=2), tr)

    def test_incomplete_replay_flagged(self, mesh4):
        # an overload trace replayed with a tiny drain budget
        records = [TraceRecord(0, s, (s + 1) % 16, 4) for s in range(16)] * 10
        records.sort(key=lambda r: r.time)
        tr = Trace(records, num_nodes=16)
        res = TraceDrivenSimulator(mesh4, tr).run(drain_limit=5)
        assert not res.completed
