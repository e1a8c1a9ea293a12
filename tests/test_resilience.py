"""Tests for the run-health observers: the stall watchdog, its diagnosis,
and the invariant checker."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.core.resilience import (
    InvariantChecker,
    InvariantViolation,
    SimulationStalled,
    Watchdog,
    diagnose,
)
from repro.network.factory import build_network
from repro.network.network import Network


def _run(cfg: NetworkConfig, rate: float = 0.1, *observers, network_factory=build_network):
    sim = OpenLoopSimulator(
        cfg,
        warmup=200,
        measure=400,
        drain_limit=4000,
        observers=observers,
        network_factory=network_factory,
    )
    return sim.run(rate)


# ---------------------------------------------------------------------------
# Golden stability: resilience present but disabled changes nothing
# ---------------------------------------------------------------------------
class TestZeroCostWhenDisabled:
    def test_watchdog_does_not_perturb_results(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        cfg = NetworkConfig(k=4, n=2, seed=3)
        plain = _run(cfg)
        watched = _run(cfg, 0.1, Watchdog(window=50), InvariantChecker())
        assert plain.avg_latency == watched.avg_latency
        assert plain.throughput == watched.throughput
        assert plain.num_measured == watched.num_measured

    def test_disabled_resilience_allocates_nothing(self, monkeypatch):
        """With observers off, no code from resilience.py allocates."""
        import repro.core.resilience as resilience_mod

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        sim = OpenLoopSimulator(
            cfg := NetworkConfig(k=4, n=2, seed=3),
            warmup=50,
            measure=100,
            drain_limit=500,
        )
        tracemalloc.start()
        try:
            sim.run(0.1)
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        allocs = snap.filter_traces(
            [tracemalloc.Filter(True, resilience_mod.__file__)]
        ).statistics("filename")
        assert allocs == []


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
#: 16-node ring, 2 VCs of 1 flit: under ``deadlocking_network`` at rate 0.4
#: it stalls within 1000 cycles, 64 VCs blocked in a 22-VC wait cycle
DEADLOCK_CFG = NetworkConfig(topology="ring", k=4, n=2, num_vcs=2, vc_buffer_size=1, seed=1)


class TestWatchdog:
    def test_healthy_run_never_trips(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        res = _run(cfg, 0.1, Watchdog(window=100))
        assert res.num_measured > 0

    def test_deadlock_detected_with_diagnosis(self, deadlocking_network):
        """Acceptance: a deadlocked network terminates via SimulationStalled."""
        with pytest.raises(SimulationStalled) as exc:
            _run(DEADLOCK_CFG, 0.4, Watchdog(window=500), network_factory=deadlocking_network)
        diag = exc.value.diagnosis
        assert diag.in_flight > 0
        assert diag.blocked, "diagnosis must name at least one blocked VC"
        b = diag.blocked[0]
        assert 0 <= b.node < 16 and b.vc in (0, 1)
        assert f"router {b.node}" in str(exc.value)
        assert "no forward progress" in str(exc.value)
        assert diag.oldest_packet is not None
        assert diag.oldest_packet["age"] >= 500

    def test_deadlock_diagnosis_finds_wait_cycle(self, deadlocking_network):
        with pytest.raises(SimulationStalled) as exc:
            _run(DEADLOCK_CFG, 0.4, Watchdog(window=500), network_factory=deadlocking_network)
        cycle = exc.value.diagnosis.suspected_cycle
        assert len(cycle) >= 2
        keys = {(b.node, b.in_port, b.vc) for b in exc.value.diagnosis.blocked}
        assert set(cycle) <= keys

    def test_watchdog_reusable_across_runs(self):
        dog = Watchdog(window=100)
        cfg = NetworkConfig(k=4, n=2, seed=3)
        assert _run(cfg, 0.1, dog).num_measured > 0
        assert _run(cfg, 0.1, dog).num_measured > 0

    def test_window_validated(self):
        with pytest.raises(ValueError):
            Watchdog(window=0)


class TestDiagnose:
    def test_idle_network_snapshot(self):
        net = Network(NetworkConfig(k=4, n=2))
        diag = diagnose(net, window=100)
        assert diag.in_flight == 0
        assert diag.blocked == []
        assert diag.oldest_packet is None
        assert "0 packets in flight" in diag.summary()


# ---------------------------------------------------------------------------
# Invariant checker
# ---------------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_network_passes(self):
        net = Network(NetworkConfig(k=4, n=2))
        InvariantChecker().check(net)

    def test_delivered_counter_tamper_detected(self):
        net = Network(NetworkConfig(k=4, n=2))
        net.total_flits_delivered += 1
        with pytest.raises(InvariantViolation, match="per-node ejections"):
            InvariantChecker().check(net)

    def test_injection_counter_tamper_detected(self):
        net = Network(NetworkConfig(k=4, n=2))
        net.flit_injections[0] += 1
        with pytest.raises(InvariantViolation, match="flit conservation"):
            InvariantChecker().check(net)

    def test_credit_leak_detected(self):
        net = Network(NetworkConfig(k=4, n=2))
        net.routers[0].credits[0][0] -= 1
        with pytest.raises(InvariantViolation, match="credit conservation"):
            InvariantChecker().check(net)

    @pytest.mark.parametrize("how", ["explicit", "env"])
    def test_run_shorter_than_an_interval_is_audited_at_its_end(self, how, monkeypatch):
        """A 50-cycle run never reaches the 256-cycle interval: the audit
        that catches a credit taken before the run ends is ``finish``'s."""
        from repro.core.engine import SimulationEngine

        class FiftyCycles:
            def inject(self, net):
                if net.now < 30:
                    net.offer(net.make_packet(net.now % 16, (net.now + 5) % 16, 4))
                if net.now == 45:
                    net.routers[5].credits[0][0] -= 1

            def on_delivered(self, pkt, net):
                pass

            def done(self, net):
                return net.now >= 50

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        observers = (InvariantChecker(),)
        if how == "env":
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
            observers = ()
        net = Network(NetworkConfig(k=4, n=2))
        engine = SimulationEngine(net, FiftyCycles(), max_cycles=1000, observers=observers)
        with pytest.raises(InvariantViolation, match="credit conservation"):
            engine.run()
        assert net.now == 50

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_env_var_enables_by_default(self, monkeypatch):
        from repro.core.engine import SimulationEngine

        class Idle:
            def inject(self, net):
                pass

            def on_delivered(self, pkt, net):
                pass

            def done(self, net):
                return True

        def checkers(*given):
            net = Network(NetworkConfig(k=4, n=2))
            engine = SimulationEngine(net, Idle(), max_cycles=0, observers=given)
            return [obs for obs in engine.observers if isinstance(obs, InvariantChecker)]

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert checkers() == []
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert len(checkers()) == 1
        mine = InvariantChecker(interval=8)
        assert checkers(Watchdog(window=10), mine) == [mine]
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert checkers() == []
