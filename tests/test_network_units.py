"""Unit tests for network building blocks: packets, VCs, arbiters, buckets."""

from __future__ import annotations

import pytest

from repro.network.arbiters import (
    AgeArbiter,
    RoundRobinArbiter,
    StrictPriorityArbiter,
    build_arbiter,
)
from repro.network.links import TimeBuckets
from repro.network.packet import Packet
from repro.network.vc import InputVC


class TestPacket:
    def test_latency_requires_delivery(self):
        p = Packet(0, 1, 2, 1, 10)
        with pytest.raises(ValueError):
            _ = p.latency
        p.deliver_time = 25
        assert p.latency == 15

    def test_slots_reject_new_attributes(self):
        p = Packet(0, 1, 2, 1, 0)
        with pytest.raises(AttributeError):
            p.color = "red"


class TestInputVC:
    def test_initial_state(self):
        vc = InputVC(3, 1, 1, 5)
        assert vc.node == 5 and vc.upstream is None
        assert vc.out_port == -1 and vc.out_vc == -1
        assert vc.candidates is None
        assert not vc.fifo


def reqs(*pairs):
    return [(i, Packet(pid, 0, 1, 1, t)) for i, pid, t in pairs]


class TestRoundRobinArbiter:
    def test_rotates(self):
        arb = RoundRobinArbiter(4)
        r = reqs((0, 0, 0), (2, 1, 0))
        assert arb.pick(r)[0] == 0
        assert arb.pick(r)[0] == 2  # pointer moved past 0
        assert arb.pick(r)[0] == 0  # wrapped

    def test_wraps_pointer(self):
        arb = RoundRobinArbiter(4)
        arb.ptr = 3
        assert arb.pick(reqs((1, 0, 0)))[0] == 1

    def test_all_requesters_served_eventually(self):
        arb = RoundRobinArbiter(8)
        r = reqs((1, 0, 0), (4, 1, 0), (6, 2, 0))
        winners = {arb.pick(r)[0] for _ in range(3)}
        assert winners == {1, 4, 6}


class TestAgeArbiter:
    def test_oldest_wins(self):
        arb = AgeArbiter()
        r = reqs((0, 0, 50), (3, 1, 10), (5, 2, 99))
        assert arb.pick(r)[0] == 3

    def test_tie_breaks_on_pid(self):
        arb = AgeArbiter()
        r = reqs((4, 7, 10), (2, 3, 10))
        assert arb.pick(r)[1].pid == 3


class TestBuildArbiter:
    def test_names(self):
        assert isinstance(build_arbiter("round_robin", 4), RoundRobinArbiter)
        assert isinstance(build_arbiter("age", 4), AgeArbiter)
        assert isinstance(build_arbiter("priority", 4), StrictPriorityArbiter)
        with pytest.raises(ValueError):
            build_arbiter("weighted", 4)


class TestTimeBuckets:
    def test_schedule_and_pop(self):
        tb = TimeBuckets()
        tb.schedule(5, "a")
        tb.schedule(5, "b")
        tb.schedule(7, "c")
        assert tb.pending == 3
        assert tb.pop(5) == ["a", "b"]
        assert tb.pending == 1
        assert tb.pop(5) is None
        assert tb.pop(6) is None
        assert tb.pop(7) == ["c"]
        assert not tb

    def test_bool_reflects_pending(self):
        tb = TimeBuckets()
        assert not tb
        tb.schedule(1, object())
        assert tb
