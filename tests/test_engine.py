"""Unit tests for the unified SimulationEngine: one workload, one loop.

The open-loop measurement window lives in the open-loop driver and is
tested there (``tests/test_openloop.py::TestMeasurementWindow``).
"""

from __future__ import annotations

import re

import pytest

from repro.config import NetworkConfig
from repro.core.engine import Observer, SimulationEngine, Workload
from repro.network.ideal import IdealNetwork
from repro.network.network import Network


class _Burst:
    """Workload offering ``count`` packets on cycle 0, done once all drained."""

    def __init__(self, count: int, size: int = 1):
        self.count = count
        self.size = size
        self.offered = 0
        self.delivered: list = []

    def inject(self, net) -> None:
        while self.offered < self.count:
            src = self.offered % net.num_nodes
            dst = (src + 1) % net.num_nodes
            net.offer(net.make_packet(src, dst, self.size))
            self.offered += 1

    def on_delivered(self, pkt, net) -> None:
        self.delivered.append(pkt)

    def done(self, net) -> bool:
        return self.offered >= self.count and net.is_idle()


class TestProtocols:
    def test_burst_satisfies_workload(self):
        assert isinstance(_Burst(1), Workload)


class TestValidation:
    def test_rejects_negative_knobs(self):
        net = IdealNetwork(num_nodes=4)
        with pytest.raises(ValueError):
            SimulationEngine(net, _Burst(0), max_cycles=-1)


class TestCycleOrder:
    def test_done_inject_step_deliver_observe(self):
        """Each cycle asks ``done`` first, then injects, steps, hands over
        the deliveries and lets the observers watch — in that order."""
        log: list = []

        class Logged(_Burst):
            def inject(self, net):
                log.append("inject")
                super().inject(net)

            def on_delivered(self, pkt, net):
                log.append("deliver")

            def done(self, net):
                log.append("done")
                return super().done(net)

        class Watch:
            def begin(self, net):
                log.append("begin")

            def on_cycle(self, net, now, delivered):
                log.append("observe")

            def finish(self, net):
                log.append("finish")

        net = IdealNetwork(num_nodes=4)
        assert SimulationEngine(net, Logged(3), max_cycles=100, observers=(Watch(),)).run()
        assert log[0] == "begin" and log[-2:] == ["done", "finish"]
        cycles = " ".join(log[1:-2])
        assert re.fullmatch(r"(done inject (deliver )*observe ?)+", cycles), cycles
        assert cycles.count("deliver") == 3


class TestCompletion:
    def test_runs_to_completion(self):
        net = Network(NetworkConfig(k=4, n=2))
        assert SimulationEngine(net, _Burst(32), max_cycles=10_000).run() is True
        assert net.is_idle()
        assert net.total_packets_delivered == 32

    def test_budget_cutoff_reports_incomplete(self):
        net = Network(NetworkConfig(k=4, n=2))
        assert SimulationEngine(net, _Burst(64, size=4), max_cycles=3).run() is False
        assert net.now == 3
        assert not net.is_idle()

    def test_zero_budget_runs_nothing(self):
        net = Network(NetworkConfig(k=4, n=2))
        assert SimulationEngine(net, _Burst(8), max_cycles=0).run() is False
        assert net.now == 0

    def test_delivered_packets_reach_the_sink(self):
        net = IdealNetwork(num_nodes=8)
        burst = _Burst(5)
        assert SimulationEngine(net, burst, max_cycles=1000).run()
        assert len(burst.delivered) == 5


class TestNetworkLikeUnification:
    def test_engine_drives_both_backends_identically(self):
        """The same workload code runs unchanged on Network and
        IdealNetwork — the point of the NetworkLike protocol."""
        from repro.network.base import NetworkLike

        for net in (Network(NetworkConfig(k=4, n=2)), IdealNetwork(num_nodes=16)):
            assert isinstance(net, NetworkLike)
            assert SimulationEngine(net, _Burst(12), max_cycles=10_000).run()
            assert net.total_packets_delivered == 12


class _CycleCounter:
    """An observer that counts the cycles it watched and keeps its record."""

    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def begin(self, net) -> None:
        self.cycles = 0

    def on_cycle(self, net, now, delivered) -> None:
        assert now == net.now - 1  # the cycle that just executed
        self.log.append(self.name)
        self.cycles += 1

    def finish(self, net) -> None:
        self.record = {"observer": self.name, "cycles": self.cycles, "end": net.now}


def _drivers():
    from repro.config import CmpConfig
    from repro.core.barrier import BarrierSimulator
    from repro.core.closedloop import BatchSimulator
    from repro.core.openloop import OpenLoopSimulator
    from repro.core.tracedriven import TraceDrivenSimulator, capture_openloop_trace
    from repro.execdriven import BENCHMARKS, CmpSystem

    cfg = NetworkConfig(k=4, n=2, seed=3)
    trace = capture_openloop_trace(cfg, 0.05, cycles=100)
    cmp_cfg = CmpConfig(network=NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4))
    return {
        "openloop": lambda obs: OpenLoopSimulator(
            cfg, warmup=20, measure=50, drain_limit=500, observers=obs
        ).run(0.1),
        "batch": lambda obs: BatchSimulator(cfg, batch_size=5, observers=obs).run(),
        "barrier": lambda obs: BarrierSimulator(cfg, batch_size=5, observers=obs).run(),
        "trace": lambda obs: TraceDrivenSimulator(cfg, trace, observers=obs).run(),
        "cmp": lambda obs: CmpSystem(BENCHMARKS["lu"](100), cmp_cfg, observers=obs).run(),
    }


class TestObservers:
    def test_watchers_satisfy_the_protocol(self):
        from repro.core.resilience import InvariantChecker, Watchdog

        for obs in (Watchdog(), InvariantChecker(), _CycleCounter("c", [])):
            assert isinstance(obs, Observer)

    @pytest.mark.parametrize("driver", ["openloop", "batch", "barrier", "trace", "cmp"])
    def test_every_driver_hands_its_observers_to_the_engine(self, driver, monkeypatch):
        """Each observer watches every executed cycle, in tuple order, and
        is told once when the run ends."""
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        log: list = []
        first, second = _CycleCounter("first", log), _CycleCounter("second", log)
        _drivers()[driver]((first, second))
        assert first.cycles == second.cycles > 0
        assert log == ["first", "second"] * first.cycles
        end = first.record["end"]
        assert end >= first.cycles
        assert (first.record, second.record) == (
            {"observer": "first", "cycles": first.cycles, "end": end},
            {"observer": "second", "cycles": first.cycles, "end": end},
        )
