"""Tests for the closed-loop batch model and its extensions."""

from __future__ import annotations

import pytest

from repro.core.closedloop import BatchSimulator
from repro.core.osmodel import OSModel
from repro.core.reply import FixedReply, ProbabilisticReply


class TestBaselineBatch:
    def test_completes_and_counts(self, mesh4):
        res = BatchSimulator(mesh4, batch_size=20, max_outstanding=2).run()
        assert res.completed
        assert res.total_requests == 20 * 16
        assert res.runtime > 0
        assert (res.node_finish >= 0).all()
        assert res.runtime == res.node_finish.max()

    def test_m1_runtime_is_serialized_round_trips(self, mesh4):
        # With m=1 each operation is a full round trip; runtime/b should be
        # close to the average request+reply latency.
        res = BatchSimulator(mesh4, batch_size=50, max_outstanding=1).run()
        avg_rtt = 2 * 8.5  # ~ 2 * zero-load latency on 4x4
        assert res.normalized_runtime == pytest.approx(avg_rtt, rel=0.3)

    def test_runtime_decreases_with_m(self, mesh4):
        runtimes = [
            BatchSimulator(mesh4, batch_size=40, max_outstanding=m).run().runtime
            for m in (1, 2, 4, 16)
        ]
        assert runtimes == sorted(runtimes, reverse=True)

    def test_throughput_saturates_at_high_m(self, mesh4):
        t8 = BatchSimulator(mesh4, batch_size=150, max_outstanding=8).run().throughput
        t32 = BatchSimulator(mesh4, batch_size=150, max_outstanding=32).run().throughput
        # m beyond the bandwidth-delay product buys little (Fig. 2)
        assert t32 < t8 * 1.35

    def test_packet_throughput_formula(self, mesh4):
        res = BatchSimulator(mesh4, batch_size=30, max_outstanding=4).run()
        assert res.packet_throughput == pytest.approx(2 * 30 / res.runtime)
        # single-flit packets: flit throughput equals the paper's θ=(2b)/T
        assert res.throughput == pytest.approx(res.packet_throughput, rel=1e-6)

    def test_runtime_scales_with_tr_at_m1(self, mesh4):
        # §III-B: at m=1 runtime tracks zero-load latency ratios.
        r1 = BatchSimulator(mesh4, batch_size=40, max_outstanding=1).run().runtime
        r2 = BatchSimulator(
            mesh4.with_(router_delay=2), batch_size=40, max_outstanding=1
        ).run().runtime
        assert r2 / r1 == pytest.approx(1.5, abs=0.12)

    def test_deterministic(self, mesh4):
        a = BatchSimulator(mesh4, batch_size=25, max_outstanding=2).run()
        b = BatchSimulator(mesh4, batch_size=25, max_outstanding=2).run()
        assert a.runtime == b.runtime
        assert (a.node_finish == b.node_finish).all()

    def test_incomplete_run_flagged(self, mesh4):
        res = BatchSimulator(
            mesh4, batch_size=100, max_outstanding=1, max_cycles=200
        ).run()
        assert not res.completed
        assert res.runtime == 200

    def test_mesh_corner_finishes_last(self, mesh8):
        # Fig. 7a: on the edge-asymmetric mesh, corner nodes finish last.
        res = BatchSimulator(mesh8, batch_size=60, max_outstanding=4).run()
        finish = res.node_finish.reshape(8, 8)
        corners = [finish[0, 0], finish[0, 7], finish[7, 0], finish[7, 7]]
        center = finish[3:5, 3:5].mean()
        assert max(corners) > center

    def test_validation(self, mesh4):
        with pytest.raises(ValueError):
            BatchSimulator(mesh4, batch_size=0)
        with pytest.raises(ValueError):
            BatchSimulator(mesh4, max_outstanding=0)
        with pytest.raises(ValueError):
            BatchSimulator(mesh4, nar=0.0)
        with pytest.raises(ValueError):
            BatchSimulator(mesh4, nar=1.5)


class TestNarInjectionModel:
    def test_nar_one_is_baseline(self, mesh4):
        base = BatchSimulator(mesh4, batch_size=30, max_outstanding=2).run()
        nar1 = BatchSimulator(mesh4, batch_size=30, max_outstanding=2, nar=1.0).run()
        assert base.runtime == nar1.runtime

    def test_low_nar_slows_runtime(self, mesh4):
        fast = BatchSimulator(mesh4, batch_size=30, max_outstanding=4, nar=1.0).run()
        slow = BatchSimulator(mesh4, batch_size=30, max_outstanding=4, nar=0.05).run()
        assert slow.runtime > 2 * fast.runtime

    def test_low_nar_hides_router_delay(self, mesh4):
        """§IV-C1: at small NAR and large m the network is not the
        bottleneck, so tr barely affects runtime."""
        ratios = {}
        for nar in (1.0, 0.04):
            r1 = BatchSimulator(
                mesh4, batch_size=40, max_outstanding=16, nar=nar
            ).run().runtime
            r4 = BatchSimulator(
                mesh4.with_(router_delay=4), batch_size=40, max_outstanding=16, nar=nar
            ).run().runtime
            ratios[nar] = r4 / r1
        assert ratios[0.04] < ratios[1.0]
        assert ratios[0.04] < 1.35

    def test_nar_runtime_lower_bound(self, mesh4):
        # b operations at rate nar take at least b/nar cycles.
        res = BatchSimulator(mesh4, batch_size=30, max_outstanding=8, nar=0.1).run()
        assert res.runtime >= 30 / 0.1 * 0.8


class TestReplyModel:
    def test_fixed_reply_adds_latency(self, mesh4):
        base = BatchSimulator(mesh4, batch_size=30, max_outstanding=1).run()
        slow = BatchSimulator(
            mesh4, batch_size=30, max_outstanding=1, reply_model=FixedReply(50)
        ).run()
        # m=1: every operation serializes, so runtime grows by ~b*50
        assert slow.runtime - base.runtime == pytest.approx(30 * 50, rel=0.1)

    def test_memory_latency_dampens_tr_impact(self, mesh4):
        """§IV-C2 / Fig. 17: long memory latencies dominate the round trip
        and mute router-delay effects."""
        ratios = {}
        for reply in (None, FixedReply(300)):
            r1 = BatchSimulator(
                mesh4, batch_size=30, max_outstanding=1, reply_model=reply
            ).run().runtime
            r4 = BatchSimulator(
                mesh4.with_(router_delay=4),
                batch_size=30,
                max_outstanding=1,
                reply_model=reply,
            ).run().runtime
            ratios[reply is None] = r4 / r1
        assert ratios[False] < ratios[True]

    def test_probabilistic_same_mean_lower_throughput_than_fixed(self, mesh4):
        """Fig. 17(b) vs (c): same mean memory latency, but the long-tail
        probabilistic model reduces the achieved injection rate."""
        fixed = BatchSimulator(
            mesh4, batch_size=60, max_outstanding=4, reply_model=FixedReply(50)
        ).run()
        prob = BatchSimulator(
            mesh4,
            batch_size=60,
            max_outstanding=4,
            reply_model=ProbabilisticReply(20, 300, 0.1),
        ).run()
        assert prob.throughput < fixed.throughput


class TestOSModel:
    def test_static_extra_increases_requests(self, mesh4):
        os_model = OSModel(static_fraction=0.5, timer_rate=0.0, timer_batch=0)
        res = BatchSimulator(
            mesh4, batch_size=20, max_outstanding=2, os_model=os_model
        ).run()
        assert res.completed
        assert res.os_requests == 10 * 16
        assert res.total_requests == 30 * 16

    def test_timer_adds_runtime_proportional_traffic(self, mesh4):
        os_model = OSModel(static_fraction=0.0, timer_rate=0.01, timer_batch=2)
        slow = BatchSimulator(
            mesh4, batch_size=40, max_outstanding=1, os_model=os_model
        ).run()
        base = BatchSimulator(mesh4, batch_size=40, max_outstanding=1).run()
        assert slow.os_requests > 0
        assert slow.runtime > base.runtime
        # total OS work scales with runtime: roughly timer_batch per node per
        # 1/timer_rate cycles
        expected = slow.runtime * 0.01 * 2 * 16
        assert slow.os_requests == pytest.approx(expected, rel=0.5)

    def test_faster_timer_means_more_kernel_traffic(self, mesh4):
        """§V: the 75 MHz clock sees ~40x more interrupts per cycle than
        3 GHz, hence far more kernel traffic."""
        res = {}
        for rate in (0.02, 0.0005):
            os_model = OSModel(static_fraction=0.0, timer_rate=rate, timer_batch=2)
            res[rate] = BatchSimulator(
                mesh4, batch_size=40, max_outstanding=2, os_model=os_model
            ).run()
        assert res[0.02].os_requests > 5 * res[0.0005].os_requests
        assert res[0.02].runtime > res[0.0005].runtime


class TestOSModelConfig:
    def test_timer_interval(self):
        assert OSModel(timer_rate=0.004).timer_interval == 250
        assert OSModel(timer_rate=0.0).timer_interval == 0
        assert OSModel(timer_batch=0).timer_interval == 0

    def test_static_extra(self):
        assert OSModel(static_fraction=0.58).static_extra(1000) == 580
        assert OSModel(static_fraction=0.0).static_extra(1000) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OSModel(static_fraction=-0.1)
        with pytest.raises(ValueError):
            OSModel(timer_rate=1.5)
        with pytest.raises(ValueError):
            OSModel(timer_batch=-1)
        with pytest.raises(ValueError):
            OSModel(os_nar=0.0)
