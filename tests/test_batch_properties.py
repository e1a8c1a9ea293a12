"""Property and analytical tests on the closed-loop models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.core.reply import FixedReply

CFG = NetworkConfig(k=4, n=2)


class TestConservation:
    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["uniform_random", "transpose", "bit_complement"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_total_requests_equals_n_times_b(self, b, m, traffic):
        cfg = CFG.with_(traffic=traffic)
        res = BatchSimulator(cfg, batch_size=b, max_outstanding=m).run()
        assert res.completed
        assert res.total_requests == 16 * b
        assert res.os_requests == 0
        assert (res.node_finish >= 0).all()

    @given(st.integers(min_value=1, max_value=4), st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_static_os_requests_counted(self, m, frac):
        os_model = OSModel(static_fraction=frac, timer_rate=0.0, timer_batch=0)
        res = BatchSimulator(
            CFG, batch_size=20, max_outstanding=m, os_model=os_model
        ).run()
        assert res.completed
        assert res.os_requests == 16 * round(frac * 20)
        assert res.total_requests == 16 * (20 + round(frac * 20))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_runtime_reproducible_per_seed(self, seed):
        a = BatchSimulator(CFG, batch_size=15, max_outstanding=2).run(seed=seed)
        b = BatchSimulator(CFG, batch_size=15, max_outstanding=2).run(seed=seed)
        assert a.runtime == b.runtime


class TestAnalyticalStructure:
    def test_m1_runtime_decomposes_into_gap_plus_rtt(self):
        """At m=1 with NAR, per-op time ~ E[gap] + RTT: the geometric wait
        (mean 1/nar) plus the request+reply round trip."""
        nar = 0.05
        plain = BatchSimulator(CFG, batch_size=80, max_outstanding=1).run()
        rtt = plain.normalized_runtime  # pure round-trip time per op
        gapped = BatchSimulator(
            CFG, batch_size=80, max_outstanding=1, nar=nar
        ).run()
        expected = 1.0 / nar + rtt
        assert gapped.normalized_runtime == pytest.approx(expected, rel=0.12)

    def test_m1_reply_latency_adds_linearly(self):
        base = BatchSimulator(CFG, batch_size=60, max_outstanding=1).run()
        for delay in (25, 100):
            res = BatchSimulator(
                CFG, batch_size=60, max_outstanding=1, reply_model=FixedReply(delay)
            ).run()
            assert res.normalized_runtime == pytest.approx(
                base.normalized_runtime + delay, rel=0.08
            )

    def test_batch_theta_approaches_openloop_saturation(self):
        """The m->inf asymptote of the batch model's achieved throughput is
        the network's saturation throughput (SII-B1)."""
        theta = BatchSimulator(CFG, batch_size=400, max_outstanding=64).run().throughput
        sat = OpenLoopSimulator(
            CFG, warmup=300, measure=600, drain_limit=3000
        ).saturation_throughput(tolerance=0.02)
        assert theta == pytest.approx(sat, rel=0.25)

    def test_runtime_at_least_bandwidth_bound(self):
        """T >= 2b/theta_max: no run can beat the network's capacity."""
        res = BatchSimulator(CFG, batch_size=200, max_outstanding=32).run()
        assert res.throughput < 0.8  # 4x4 mesh capacity ~0.74

    def test_node_finish_monotone_under_larger_batch(self):
        t40 = BatchSimulator(CFG, batch_size=40, max_outstanding=4).run().runtime
        t80 = BatchSimulator(CFG, batch_size=80, max_outstanding=4).run().runtime
        assert t80 > t40
        # near-linear scaling once in steady state
        assert t80 / t40 == pytest.approx(2.0, rel=0.25)


class TestTimerProperties:
    @given(st.sampled_from([0.02, 0.01, 0.005]))
    @settings(max_examples=6, deadline=None)
    def test_os_traffic_proportional_to_runtime(self, rate):
        os_model = OSModel(static_fraction=0.0, timer_rate=rate, timer_batch=1)
        res = BatchSimulator(
            CFG, batch_size=50, max_outstanding=1, os_model=os_model
        ).run()
        assert res.completed
        expected = res.runtime * rate * 16
        assert res.os_requests == pytest.approx(expected, rel=0.35)

    def test_timer_traffic_extends_runtime_superlinearly_at_saturation(self):
        """Timer batches compete for the same m budget: heavy timer rates
        inflate runtime more than their raw request count suggests."""
        base = BatchSimulator(CFG, batch_size=50, max_outstanding=1).run()
        heavy = BatchSimulator(
            CFG,
            batch_size=50,
            max_outstanding=1,
            os_model=OSModel(static_fraction=0.0, timer_rate=0.02, timer_batch=4),
        ).run()
        extra_ops = heavy.os_requests / 16
        assert heavy.runtime > base.runtime + extra_ops  # each op costs >1 cycle
