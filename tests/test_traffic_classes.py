"""First-class traffic classes: registry, arbiters, and per-class views.

Covers the class registry itself (parsing, validation, round-trips), the
class-aware arbiter family (strict priority and weighted fair queueing),
the per-class measurement surface (OpenLoopResult, stats helpers, the
``classes`` probe with JSONL round-trip), and the closed-loop driver's
registry-based user/OS bookkeeping.  Backend equality on multi-class
configs is enforced separately by the differential harness and the golden
records.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.classes import (
    DEFAULT_CLASSES,
    OS_CLASS,
    USER_CLASS,
    USER_OS_CLASSES,
    class_shares,
    format_classes,
    inject_order,
    parse_classes,
)
from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.osmodel import OSModel
from repro.core.probes import ClassLatencyProbe, ProbeSet, build_probes
from repro.core.reply import FixedReply, ImmediateReply, PerClassReply
from repro.analysis.stats import (
    LatencyStats,
    class_breakdown,
    latency_stats,
    per_class_latency_stats,
)
from repro.network.arbiters import (
    StrictPriorityArbiter,
    WeightedArbiter,
    build_arbiter,
)


class _Pkt:
    def __init__(self, pid, traffic_class, create_time=0, size=1, latency=0.0):
        self.pid = pid
        self.traffic_class = traffic_class
        self.create_time = create_time
        self.size = size
        self.latency = latency


# ---------------------------------------------------------------------------
# registry parsing and validation
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_is_single_class(self):
        assert parse_classes(None) == DEFAULT_CLASSES
        assert len(DEFAULT_CLASSES) == 1
        assert DEFAULT_CLASSES[0].priority == 0
        assert DEFAULT_CLASSES[0].weight == 1

    def test_parse_spec_round_trip(self):
        spec = "user:share=3:weight=2+os:priority=1"
        classes = parse_classes(spec)
        assert [c.name for c in classes] == ["user", "os"]
        assert classes[0].weight == 2
        assert classes[1].priority == 1
        assert parse_classes(format_classes(classes)) == classes

    def test_parse_count(self):
        classes = parse_classes(3)
        assert len(classes) == 3
        # c0 is the highest-priority class of a numbered registry
        assert classes[0].priority > classes[-1].priority

    def test_config_validates_eagerly(self):
        with pytest.raises(ValueError):
            NetworkConfig(classes="dup+dup")
        with pytest.raises(ValueError):
            NetworkConfig(classes="a:priority=-1")
        with pytest.raises(ValueError):
            NetworkConfig(classes="a:weight=0")
        with pytest.raises(ValueError):
            NetworkConfig(classes="a:pattern=not_a_pattern")

    def test_priority_weighted_need_registry_on_arbiter(self):
        with pytest.raises(ValueError):
            build_arbiter("priority", 4, None)
        with pytest.raises(ValueError):
            build_arbiter("weighted", 4, None)

    def test_shares_and_inject_order(self):
        classes = parse_classes("a:share=3+b:share=1")
        assert class_shares(classes) == (0.75, 0.25)
        assert inject_order(USER_OS_CLASSES) == (OS_CLASS, USER_CLASS)
        assert inject_order(DEFAULT_CLASSES) == (0,)


# ---------------------------------------------------------------------------
# arbiters
# ---------------------------------------------------------------------------


class TestArbiters:
    def test_strict_priority_picks_highest(self):
        arb = build_arbiter("priority", 8, parse_classes("lo+hi:priority=5"))
        assert isinstance(arb, StrictPriorityArbiter)
        reqs = [(0, _Pkt(1, 0, create_time=0)), (3, _Pkt(2, 1, create_time=9))]
        # the younger packet wins because its class outranks
        assert arb.pick(reqs) == reqs[1]

    def test_strict_priority_ties_break_by_age(self):
        arb = build_arbiter("priority", 8, parse_classes("a+b"))
        reqs = [(0, _Pkt(2, 0, create_time=5)), (3, _Pkt(1, 1, create_time=2))]
        assert arb.pick(reqs) == reqs[1]

    def test_out_of_range_class_clamps(self):
        arb = build_arbiter("priority", 8, parse_classes("lo+hi:priority=5"))
        reqs = [(0, _Pkt(1, 7, create_time=9)), (1, _Pkt(2, 0, create_time=0))]
        # class 7 clamps to the last registry class (hi) and outranks lo
        assert arb.pick(reqs) == reqs[0]

    def test_weighted_grants_follow_weights(self):
        classes = parse_classes("a:weight=3+b:weight=1")
        arb = build_arbiter("weighted", 8, classes)
        assert isinstance(arb, WeightedArbiter)
        grants = {0: 0, 1: 0}
        reqs = [(0, _Pkt(1, 0)), (1, _Pkt(2, 1))]
        for _ in range(40):
            winner = arb.pick(reqs)
            grants[winner[1].traffic_class] += 1
            arb.granted(winner[1])
        assert grants[0] == 30 and grants[1] == 10

    def test_weighted_pick_is_pure(self):
        """pick() must not mutate state — only granted() advances it."""
        arb = build_arbiter("weighted", 8, parse_classes("a+b"))
        reqs = [(0, _Pkt(1, 0)), (1, _Pkt(2, 1))]
        first = arb.pick(reqs)
        assert all(arb.pick(reqs) == first for _ in range(5))


# ---------------------------------------------------------------------------
# per-class measurement surface
# ---------------------------------------------------------------------------


class TestPerClassMeasurement:
    def test_empty_inputs_yield_nan_not_raise(self):
        for stats in (
            LatencyStats.from_values([]),
            latency_stats([]),
            *per_class_latency_stats([], [], 2),
            *class_breakdown([], 2),
        ):
            assert stats.count == 0
            assert math.isnan(stats.mean) and math.isnan(stats.p99)

    def test_single_sample_has_nan_std(self):
        s = LatencyStats.from_values([4.0])
        assert s.count == 1 and s.mean == 4.0 and math.isnan(s.std)

    def test_per_class_split(self):
        stats = per_class_latency_stats([1.0, 3.0, 10.0], [0, 0, 1], 3)
        assert stats[0].mean == 2.0
        assert stats[1].mean == 10.0
        assert stats[2].count == 0 and math.isnan(stats[2].mean)

    def test_class_breakdown_clamps(self):
        pkts = [_Pkt(1, 0, latency=2.0), _Pkt(2, 9, latency=6.0)]
        stats = class_breakdown(pkts, 2)
        assert stats[0].mean == 2.0 and stats[1].mean == 6.0

    def test_openloop_result_per_class(self):
        cfg = NetworkConfig(
            k=4, n=2, seed=3, classes="user:share=3+os:priority=1"
        )
        res = OpenLoopSimulator(
            cfg, warmup=100, measure=300, drain_limit=3000
        ).run(0.2)
        assert res.num_classes == 2
        assert len(res.class_ids) == res.num_measured
        per = res.per_class_stats()
        assert sum(s.count for s in per) == res.num_measured
        # shares ~3:1 in packets and throughput
        assert per[0].count > 2 * per[1].count
        assert res.per_class_throughput[0] > 2 * res.per_class_throughput[1]
        assert res.per_class_throughput.sum() == pytest.approx(
            res.throughput, rel=0.15
        )

    def test_single_class_result_shape(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        res = OpenLoopSimulator(
            cfg, warmup=100, measure=200, drain_limit=2000
        ).run(0.1)
        assert res.num_classes == 1
        assert res.per_class_stats()[0].count == res.num_measured


class TestClassLatencyProbe:
    def test_probe_records_round_trip_jsonl(self, tmp_path):
        from repro.analysis.io import read_jsonl

        out = tmp_path / "probes.jsonl"
        probes = ProbeSet(build_probes("classes"), interval=100, out=out)
        cfg = NetworkConfig(
            k=4, n=2, seed=5, classes="user+os:priority=1"
        )
        OpenLoopSimulator(
            cfg, warmup=100, measure=200, drain_limit=2000, observers=(probes,)
        ).run(0.15)
        records = read_jsonl(out)
        assert records == probes.records
        assert all(len(r["class_packets"]) == 2 for r in records)
        assert all(len(r["class_avg_latency"]) == 2 for r in records)
        # empty-class windows serialize as null, not NaN
        for r in records:
            for pkts, lat in zip(r["class_packets"], r["class_avg_latency"]):
                assert (lat is None) == (pkts == 0)

    def test_probe_defaults_to_single_class(self):
        probe = ClassLatencyProbe()
        cfg = NetworkConfig(k=4, n=2, seed=5)
        probes = ProbeSet([probe], interval=50)
        OpenLoopSimulator(
            cfg, warmup=50, measure=100, drain_limit=1000, observers=(probes,)
        ).run(0.1)
        assert all(len(r["class_packets"]) == 1 for r in probes.records)


# ---------------------------------------------------------------------------
# closed-loop registry bookkeeping
# ---------------------------------------------------------------------------


class TestClosedLoopRegistry:
    def test_os_model_auto_extends_registry(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        sim = BatchSimulator(
            cfg, batch_size=10, max_outstanding=2, os_model=OSModel()
        )
        assert len(sim.config.classes) == 2
        assert sim.config.classes[OS_CLASS].priority == 1
        res = sim.run()
        assert res.completed and res.os_requests > 0

    def test_custom_registry_not_overridden(self):
        cfg = NetworkConfig(
            k=4, n=2, seed=7, classes="user+os:priority=2+rt:priority=3"
        )
        sim = BatchSimulator(
            cfg, batch_size=10, max_outstanding=2, os_model=OSModel()
        )
        assert len(sim.config.classes) == 3

    def test_no_os_model_means_no_os_requests(self):
        cfg = NetworkConfig(k=4, n=2, seed=7)
        res = BatchSimulator(cfg, batch_size=10, max_outstanding=2).run()
        assert res.os_requests == 0

    def test_per_class_reply_from_registry(self):
        pcr = PerClassReply.from_registry(
            USER_OS_CLASSES, {"os": FixedReply(30)}, ImmediateReply()
        )
        rng = np.random.default_rng(0)
        assert pcr.delay(rng, USER_CLASS) == 0
        assert pcr.delay(rng, OS_CLASS) == 30
        with pytest.raises(ValueError, match="unknown traffic class"):
            PerClassReply.from_registry(
                USER_OS_CLASSES, {"gpu": FixedReply(1)}, ImmediateReply()
            )


# ---------------------------------------------------------------------------
# end-to-end separation
# ---------------------------------------------------------------------------


class TestPrioritySeparation:
    def test_high_class_beats_low_class_under_load(self):
        """Near saturation, strict priority must measurably favor the
        high-priority class (the tentpole's acceptance behaviour)."""
        cfg = NetworkConfig(
            k=4,
            n=2,
            seed=9,
            arbitration="priority",
            classes="user:share=4+os:priority=1",
        )
        res = OpenLoopSimulator(
            cfg, warmup=300, measure=600, drain_limit=20000
        ).run(0.65)
        hi = res.per_class_stats()[1]
        lo = res.per_class_stats()[0]
        assert hi.mean < lo.mean
        assert hi.p99 < lo.p99
