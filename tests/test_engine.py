"""Unit tests for the unified SimulationEngine and its phase control."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.engine import (
    DrainSink,
    EngineResult,
    Injector,
    Observer,
    Phase,
    SimulationEngine,
    Sink,
)
from repro.network.ideal import IdealNetwork
from repro.network.network import Network


class _Burst:
    """Injector offering ``count`` packets on cycle 0, then done."""

    def __init__(self, count: int, size: int = 1):
        self.count = count
        self.size = size
        self.offered = 0

    def inject(self, engine) -> None:
        net = engine.network
        while self.offered < self.count:
            src = self.offered % net.num_nodes
            dst = (src + 1) % net.num_nodes
            net.offer(net.make_packet(src, dst, self.size))
            self.offered += 1

    def done(self, engine) -> bool:
        return self.offered >= self.count


class _PhaseRecorder:
    """Injector that logs the engine phase on every injection cycle."""

    def __init__(self, cycles: int):
        self.cycles = cycles
        self.phases: list[Phase] = []

    def inject(self, engine) -> None:
        self.phases.append(engine.phase)

    def done(self, engine) -> bool:
        return engine.network.now >= self.cycles


class TestProtocols:
    def test_drain_sink_satisfies_protocol(self):
        assert isinstance(DrainSink(), Sink)

    def test_burst_satisfies_injector(self):
        assert isinstance(_Burst(1), Injector)

    def test_sink_required_unless_injector_is_one(self):
        net = IdealNetwork(num_nodes=4)

        class InjectOnly:
            def inject(self, engine):
                pass

            def done(self, engine):
                return True

        with pytest.raises(TypeError, match="Sink protocol"):
            SimulationEngine(net, InjectOnly(), max_cycles=10)

    def test_shared_injector_sink_allowed(self):
        net = IdealNetwork(num_nodes=4)

        class Both:
            def inject(self, engine):
                pass

            def done(self, engine):
                return True

            def on_delivered(self, pkt, engine):
                pass

        engine = SimulationEngine(net, Both(), max_cycles=10)
        assert engine.sink is engine.injector


class TestValidation:
    def test_rejects_negative_knobs(self):
        net = IdealNetwork(num_nodes=4)
        burst = _Burst(0)
        with pytest.raises(ValueError):
            SimulationEngine(net, burst, DrainSink(), warmup=-1, max_cycles=10)
        with pytest.raises(ValueError):
            SimulationEngine(net, burst, DrainSink(), measure=-1, max_cycles=10)
        with pytest.raises(ValueError):
            SimulationEngine(net, burst, DrainSink(), max_cycles=-1)


class TestCompletion:
    def test_runs_to_completion(self):
        net = Network(NetworkConfig(k=4, n=2))
        engine = SimulationEngine(net, _Burst(32), DrainSink(), max_cycles=10_000)
        res = engine.run()
        assert res.completed is True
        assert res.final_phase is Phase.MEASURE
        assert net.is_idle()
        assert net.total_packets_delivered == 32
        assert res.cycles == net.now

    def test_budget_cutoff_reports_incomplete(self):
        net = Network(NetworkConfig(k=4, n=2))
        engine = SimulationEngine(net, _Burst(64, size=4), DrainSink(), max_cycles=3)
        res = engine.run()
        assert res.completed is False
        assert res.cycles == 3
        assert not net.is_idle()

    def test_zero_budget_runs_nothing(self):
        net = Network(NetworkConfig(k=4, n=2))
        engine = SimulationEngine(net, _Burst(8), DrainSink(), max_cycles=0)
        res = engine.run()
        assert res.completed is False
        assert res.cycles == 0

    def test_delivered_packets_reach_the_sink(self):
        net = IdealNetwork(num_nodes=8)
        seen = []

        class Collector:
            def on_delivered(self, pkt, engine):
                seen.append(pkt)

            def done(self, engine):
                return engine.network.is_idle()

        engine = SimulationEngine(net, _Burst(5), Collector(), max_cycles=1000)
        res = engine.run()
        assert res.completed
        assert len(seen) == 5


class TestPhaseControl:
    def test_lifecycle_warmup_measure_drain(self):
        net = IdealNetwork(num_nodes=4)
        rec = _PhaseRecorder(cycles=30)
        engine = SimulationEngine(
            net, rec, DrainSink(), warmup=10, measure=10, max_cycles=100
        )
        engine.run()
        assert rec.phases[:10] == [Phase.WARMUP] * 10
        assert rec.phases[10:20] == [Phase.MEASURE] * 10
        assert rec.phases[20:] == [Phase.DRAIN] * 10

    def test_no_warmup_starts_in_measure(self):
        net = IdealNetwork(num_nodes=4)
        engine = SimulationEngine(net, _Burst(1), DrainSink(), max_cycles=100)
        assert engine.phase is Phase.MEASURE
        assert engine.in_measure and not engine.in_drain

    def test_measured_flits_window(self):
        """Counter snapshots bracket exactly the measurement window."""
        cfg = NetworkConfig(k=4, n=2, seed=5)
        net = Network(cfg)
        gen = np.random.default_rng(9)

        class Steady:
            def inject(self, engine):
                if engine.network.now < 60:
                    src = int(gen.integers(16))
                    dst = int(gen.integers(16))
                    net.offer(net.make_packet(src, dst, 1))

            def done(self, engine):
                return engine.network.now >= 60

        engine = SimulationEngine(
            net, Steady(), DrainSink(), warmup=20, measure=20, max_cycles=1000
        )
        res = engine.run()
        assert res.completed
        assert res.flits_at_measure_start is not None
        assert res.flits_at_measure_end is not None
        assert res.measured_flits == (
            res.flits_at_measure_end - res.flits_at_measure_start
        )
        assert 0 <= res.measured_flits <= net.total_flits_delivered

    def test_unbounded_measure_never_drains(self):
        net = IdealNetwork(num_nodes=4)
        rec = _PhaseRecorder(cycles=20)
        engine = SimulationEngine(
            net, rec, DrainSink(), warmup=5, measure=None, max_cycles=100
        )
        res = engine.run()
        assert res.final_phase is Phase.MEASURE
        assert res.flits_at_measure_end is None
        assert res.measured_flits is None


class TestEngineResult:
    def test_measured_flits_requires_both_snapshots(self):
        r = EngineResult(cycles=1, completed=True, final_phase=Phase.MEASURE)
        assert r.measured_flits is None
        r = EngineResult(
            cycles=1,
            completed=True,
            final_phase=Phase.DRAIN,
            flits_at_measure_start=10,
            flits_at_measure_end=35,
        )
        assert r.measured_flits == 25


class TestNetworkLikeUnification:
    def test_engine_drives_both_backends_identically(self):
        """The same injector/sink code runs unchanged on Network and
        IdealNetwork — the point of the NetworkLike protocol."""
        from repro.network.base import NetworkLike

        for net in (Network(NetworkConfig(k=4, n=2)), IdealNetwork(num_nodes=16)):
            assert isinstance(net, NetworkLike)
            engine = SimulationEngine(net, _Burst(12), DrainSink(), max_cycles=10_000)
            res = engine.run()
            assert res.completed
            assert net.total_packets_delivered == 12


class _CycleCounter:
    """An observer that counts the cycles it watched and reports them."""

    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def begin(self, net) -> None:
        self.cycles = 0

    def on_cycle(self, net, now, delivered) -> None:
        assert now == net.now - 1  # the cycle that just executed
        self.log.append(self.name)
        self.cycles += 1

    def finish(self, net) -> list[dict]:
        return [{"observer": self.name, "cycles": self.cycles, "end": net.now}]


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
        from repro.core.probes import ProbeSet
        from repro.core.resilience import InvariantChecker, Watchdog

        for obs in (ProbeSet([]), Watchdog(), InvariantChecker(), _CycleCounter("c", [])):
            assert isinstance(obs, Observer)

    @pytest.mark.parametrize("driver", ["openloop", "batch", "barrier", "trace", "cmp"])
    def test_every_driver_hands_its_observers_to_the_engine(self, driver, monkeypatch):
        """Each observer watches every executed cycle, in tuple order, and
        the run's records are the observers' records in that order."""
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        log: list = []
        first, second = _CycleCounter("first", log), _CycleCounter("second", log)
        res = _drivers()[driver]((first, second))
        assert first.cycles == second.cycles > 0
        assert log == ["first", "second"] * first.cycles
        end = res.probe_records[0]["end"]
        assert res.probe_records == [
            {"observer": "first", "cycles": first.cycles, "end": end},
            {"observer": "second", "cycles": first.cycles, "end": end},
        ]
