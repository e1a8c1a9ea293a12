"""Tests for the fault model and the run-health observers: fault plans,
watchdog, invariants.

Pool-mode runners live at module scope (picklable), like in
test_parallel_sweep.py.
"""

from __future__ import annotations

import functools
import tracemalloc

import pytest

from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.core.parallel import run_sweep
from repro.core.resilience import (
    InvariantChecker,
    InvariantViolation,
    SimulationStalled,
    Watchdog,
    diagnose,
)
from repro.faults import (
    UNREACHABLE,
    FaultPlan,
    FaultState,
    LinkFault,
    RandomLinkFaults,
    RouterFault,
    UnreachableDestination,
)
from repro.network.network import Network
from repro.topology import Mesh


# ---------------------------------------------------------------------------
# FaultPlan: parsing
# ---------------------------------------------------------------------------
class TestFaultPlanParse:
    def test_random_links(self):
        plan = FaultPlan.parse("links:3")
        assert plan.clauses == (RandomLinkFaults(3, 0, None),)

    def test_directed_and_bidirectional_link(self):
        plan = FaultPlan.parse("link:3>4; link:5-6")
        assert plan.clauses == (
            LinkFault(3, 4, 0, None),
            LinkFault(5, 6, 0, None, both=True),
        )

    def test_router(self):
        assert FaultPlan.parse("router:9").clauses == (RouterFault(9, 0, None),)

    def test_windows(self):
        plan = FaultPlan.parse("link:0>1@100; link:0>1@100-500")
        assert plan.clauses[0] == LinkFault(0, 1, 100, None)
        assert plan.clauses[1] == LinkFault(0, 1, 100, 500)

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "links:x",
            "links:0",
            "link:0?1",
            "teleport:3",
            "link:0>1@500-100",
            "link:0>1@x",
            "",
            " ; ",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_error_names_the_clause(self):
        with pytest.raises(ValueError, match="bad fault clause 'links:x'"):
            FaultPlan.parse("link:0>1;links:x")

    def test_non_clause_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(["link:0>1"])

    def test_truthiness(self):
        assert FaultPlan.parse("links:1")
        assert not FaultPlan()


# ---------------------------------------------------------------------------
# FaultPlan: resolution against a topology
# ---------------------------------------------------------------------------
class TestFaultPlanResolve:
    def test_directed_link(self):
        topo = Mesh(4, 2)
        resolved = FaultPlan.parse("link:0>1").resolve(topo, seed=1)
        assert len(resolved) == 1
        node, port, start, end = resolved[0]
        assert (node, start, end) == (0, 0, None)
        assert topo.channel(node, port).dst == 1

    def test_bidirectional_link_resolves_both_directions(self):
        topo = Mesh(4, 2)
        resolved = FaultPlan.parse("link:0-1").resolve(topo, seed=1)
        assert {(n, topo.channel(n, p).dst) for n, p, _, _ in resolved} == {
            (0, 1),
            (1, 0),
        }

    def test_router_fault_covers_all_its_channels(self):
        topo = Mesh(4, 2)
        resolved = FaultPlan.parse("router:5").resolve(topo, seed=1)
        # interior node of a 4x4 mesh: 4 links in + 4 links out
        assert len(resolved) == 8
        for node, port, _, _ in resolved:
            ch = topo.channel(node, port)
            assert 5 in (ch.src, ch.dst)

    def test_non_adjacent_link_rejected(self):
        with pytest.raises(ValueError, match="no such link"):
            FaultPlan.parse("link:0>5").resolve(Mesh(4, 2), seed=1)

    def test_random_links_deterministic_per_seed(self):
        topo = Mesh(4, 2)
        plan = FaultPlan.parse("links:3")
        assert plan.resolve(topo, seed=7) == plan.resolve(topo, seed=7)
        assert plan.resolve(topo, seed=7) != plan.resolve(topo, seed=8)

    def test_random_links_fail_in_pairs(self):
        resolved = FaultPlan.parse("links:2").resolve(Mesh(4, 2), seed=1)
        assert len(resolved) == 4  # 2 undirected links = 4 directed channels

    def test_random_links_count_bounded_by_topology(self):
        with pytest.raises(ValueError, match="physical links"):
            FaultPlan.parse("links:999").resolve(Mesh(4, 2), seed=1)


# ---------------------------------------------------------------------------
# FaultState: runtime schedule + reachability
# ---------------------------------------------------------------------------
class TestFaultState:
    def _state(self, spec: str) -> tuple[Network, FaultState]:
        net = Network(NetworkConfig(k=4, n=2))
        resolved = FaultPlan.parse(spec).resolve(net.topology, seed=1)
        return net, FaultState(resolved, net.topology)

    def test_transient_window_toggles(self):
        net, fs = self._state("link:0>1@5-10")
        fs.apply(0, net)
        assert not fs.active
        fs.apply(5, net)
        assert len(fs.active) == 1
        (node, port), = fs.active
        assert fs.is_faulted(node, port)
        assert net.routers[node].fault_mask == 1 << port
        fs.apply(10, net)
        assert not fs.active
        assert net.routers[node].fault_mask == 0

    def test_apply_bumps_fault_version(self):
        net, fs = self._state("link:0>1")
        v0 = net._fault_version
        fs.apply(0, net)
        assert net._fault_version == v0 + 1
        fs.apply(1, net)  # no event scheduled: no bump
        assert net._fault_version == v0 + 1

    def test_distances_and_reachability(self):
        net, fs = self._state("router:5")
        fs.apply(0, net)
        dist = fs.distances_to(5)
        assert dist[5] == 0
        assert all(d == UNREACHABLE for i, d in enumerate(dist) if i != 5)
        assert not fs.reachable(0, 5)
        # the rest of the mesh stays connected around the dead router
        assert fs.reachable(4, 6)
        assert fs.distances_to(0)[15] >= 6  # detours cannot shorten paths

    def test_cache_invalidated_on_fault_change(self):
        net, fs = self._state("link:0>1@0-20")
        fs.apply(0, net)
        d_faulted = fs.distances_to(1)[0]
        fs.apply(20, net)
        assert fs.distances_to(1)[0] == 1
        assert d_faulted > 1


# ---------------------------------------------------------------------------
# Faulted network end-to-end
# ---------------------------------------------------------------------------
def _run(cfg: NetworkConfig, rate: float = 0.1, *observers):
    sim = OpenLoopSimulator(
        cfg, warmup=200, measure=400, drain_limit=4000, observers=observers
    )
    return sim.run(rate)


class TestFaultedRuns:
    def test_faulted_mesh_completes_with_higher_latency(self):
        base = NetworkConfig(k=4, n=2, seed=3)
        healthy = _run(base)
        faulted = _run(NetworkConfig(k=4, n=2, seed=3, faults="links:2"))
        assert faulted.num_measured > 0
        assert faulted.avg_latency > healthy.avg_latency

    def test_faulted_run_is_deterministic(self):
        cfg = NetworkConfig(k=4, n=2, seed=5, faults="links:2")
        a, b = _run(cfg), _run(cfg)
        assert (a.avg_latency, a.throughput, a.num_measured) == (
            b.avg_latency,
            b.throughput,
            b.num_measured,
        )

    def test_unreachable_destination_raises_structured_error(self):
        cfg = NetworkConfig(k=4, n=2, seed=3, faults="router:5")
        with pytest.raises(UnreachableDestination) as exc:
            _run(cfg)
        assert 5 in (exc.value.src, exc.value.dst)
        assert "unreachable" in str(exc.value)

    def test_invariants_hold_on_faulted_run(self):
        cfg = NetworkConfig(k=4, n=2, seed=3, faults="links:2;link:0>1@50-300")
        res = _run(cfg, 0.1, InvariantChecker())
        assert res.num_measured > 0

    def test_bad_spec_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            NetworkConfig(k=4, n=2, faults="nonsense")


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
        """With faults and observers off, no code from resilience.py, the
        fault model or the fault-aware routing allocates."""
        import repro.core.resilience as resilience_mod
        import repro.faults as faults_mod
        import repro.routing.fault as fault_mod

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
        for mod in (resilience_mod, faults_mod, fault_mod):
            allocs = snap.filter_traces(
                [tracemalloc.Filter(True, mod.__file__)]
            ).statistics("filename")
            assert allocs == []


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
#: adaptive routing + 1-deep VCs + high load + missing links: deadlocks fast
DEADLOCK_CFG = NetworkConfig(
    k=4, n=2, num_vcs=2, vc_buffer_size=1, routing="ma", seed=1, faults="links:4"
)


class TestWatchdog:
    def test_healthy_run_never_trips(self):
        cfg = NetworkConfig(k=4, n=2, seed=3)
        res = _run(cfg, 0.1, Watchdog(window=100))
        assert res.num_measured > 0

    def test_deadlock_detected_with_diagnosis(self):
        """Acceptance: deadlock-prone config terminates via SimulationStalled."""
        with pytest.raises(SimulationStalled) as exc:
            _run(DEADLOCK_CFG, 0.35, Watchdog(window=500))
        diag = exc.value.diagnosis
        assert diag.in_flight > 0
        assert diag.blocked, "diagnosis must name at least one blocked VC"
        b = diag.blocked[0]
        assert 0 <= b.node < 16 and b.vc in (0, 1)
        assert f"router {b.node}" in str(exc.value)
        assert "no forward progress" in str(exc.value)
        assert diag.oldest_packet is not None
        assert diag.oldest_packet["age"] >= 500

    def test_deadlock_diagnosis_finds_wait_cycle(self):
        with pytest.raises(SimulationStalled) as exc:
            _run(DEADLOCK_CFG, 0.35, Watchdog(window=500))
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

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_env_var_enables_by_default(self, monkeypatch):
        from repro.core.engine import DrainSink, SimulationEngine

        class Idle:
            def inject(self, engine):
                pass

            def done(self, engine):
                return True

        def checkers(*given):
            net = Network(NetworkConfig(k=4, n=2))
            engine = SimulationEngine(net, Idle(), DrainSink(), max_cycles=0, observers=given)
            return [obs for obs in engine.observers if isinstance(obs, InvariantChecker)]

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert checkers() == []
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert len(checkers()) == 1
        mine = InvariantChecker(interval=8)
        assert checkers(Watchdog(window=10), mine) == [mine]
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert checkers() == []


# ---------------------------------------------------------------------------
# Faulted sweeps: serial vs parallel identity
# ---------------------------------------------------------------------------
def faulted_point_runner(cfg, **kwargs):
    sim = OpenLoopSimulator(cfg, warmup=100, measure=200, drain_limit=2000)
    res = sim.run(kwargs.get("rate", 0.05))
    return {
        "latency": res.avg_latency,
        "throughput": res.throughput,
        "measured": res.num_measured,
    }


class TestFaultedSweepIdentity:
    def test_same_plan_identical_serial_vs_parallel(self):
        """Acceptance: one FaultPlan seed, identical records either way."""
        base = NetworkConfig(k=4, n=2, faults="links:2")
        extra = {"rate": (0.05, 0.1)}
        serial = run_sweep(base, {"seed": (3, 4)}, faulted_point_runner,
                           extra_axes=extra, n_workers=1)
        parallel = run_sweep(base, {"seed": (3, 4)}, faulted_point_runner,
                             extra_axes=extra, n_workers=2)
        strip = lambda rs: [
            {k: v for k, v in r.items() if k != "wall_seconds"} for r in rs
        ]
        assert strip(serial) == strip(parallel)
        assert all(r["measured"] > 0 for r in serial)
