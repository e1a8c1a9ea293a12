"""Unit tests for the pluggable probe/metrics layer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.engine import SimulationEngine
from repro.core.openloop import OpenLoopSimulator
from repro.core.probes import (
    PROBE_REGISTRY,
    ChannelUtilizationProbe,
    InFlightProbe,
    InjectionStallProbe,
    Probe,
    ProbeSet,
    VCOccupancyProbe,
    build_probes,
)
from repro.network.network import Network


@pytest.fixture
def cfg() -> NetworkConfig:
    return NetworkConfig(k=4, n=2, seed=3)


def run_openloop(cfg, probes, rate=0.2):
    sim = OpenLoopSimulator(
        cfg, warmup=100, measure=300, drain_limit=2000, observers=(probes,)
    )
    return sim.run(rate)


class _RandomSource:
    """Minimal engine workload: Bernoulli traffic for a fixed span, then
    done once the network has drained."""

    def __init__(self, gen, rate: float, cycles: int, size: int = 1):
        self.gen = gen
        self.rate = rate
        self.cycles = cycles
        self.size = size

    def inject(self, net) -> None:
        if net.now >= self.cycles:
            return
        draws = self.gen.random(net.num_nodes)
        for src in np.flatnonzero(draws < self.rate):
            dst = int(self.gen.integers(net.num_nodes))
            net.offer(net.make_packet(int(src), dst, self.size))

    def on_delivered(self, pkt, net) -> None:
        pass

    def done(self, net) -> bool:
        return net.now >= self.cycles and net.is_idle()


def drive_network(cfg, *observers, rate=0.2, cycles=400, seed=123, size=1):
    """Run a raw Network under the engine until it fully drains."""
    net = Network(cfg)
    source = _RandomSource(np.random.default_rng(seed), rate, cycles, size)
    engine = SimulationEngine(net, source, max_cycles=cycles + 5000, observers=observers)
    assert engine.run()
    return net


class TestBuildProbes:
    def test_all(self):
        probes = build_probes("all")
        assert {p.name for p in probes} == set(
            PROBE_REGISTRY[k]().name for k in PROBE_REGISTRY
        )

    def test_subset_and_whitespace(self):
        probes = build_probes(" channel , stall ")
        assert [type(p) for p in probes] == [
            ChannelUtilizationProbe,
            InjectionStallProbe,
        ]

    def test_iterable(self):
        probes = build_probes(["vc", "inflight"])
        assert [type(p) for p in probes] == [VCOccupancyProbe, InFlightProbe]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown probe"):
            build_probes("channel,teleport")

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ProbeSet(build_probes("channel"), interval=0)


class TestChannelUtilizationProbe:
    def test_ejected_reconciles_with_delivered_flits(self, cfg):
        """Sum of per-window ejected/delivered flits == the network's
        cumulative total_flits_delivered over the run (acceptance invariant)."""
        probes = ProbeSet(build_probes("channel"), interval=100)
        net = drive_network(cfg, probes)
        recs = probes.records
        assert recs
        assert net.total_flits_delivered > 0
        total_delivered = sum(r["delivered_flits"] for r in recs)
        total_ejected = sum(r["ejected_flits"] for r in recs)
        per_node_total = sum(sum(r["per_node_ejected"]) for r in recs)
        assert total_delivered == net.total_flits_delivered
        assert total_ejected == net.total_flits_delivered
        assert per_node_total == net.total_flits_delivered

    def test_link_counts_consistent(self, cfg):
        probes = ProbeSet(build_probes("channel"), interval=100)
        run_openloop(cfg, probes)
        for r in probes.records:
            assert r["link_flits"] == sum(r["per_channel"])
            assert 0.0 <= r["link_util"] <= 1.0
            assert r["max_link_util"] >= 0.0
            # a 4x4 mesh has 48 directed channels
            assert len(r["per_channel"]) == 48

    def test_hook_removed_on_detach(self, cfg):
        probes = ProbeSet(build_probes("channel"), interval=100)
        net = drive_network(cfg, probes, cycles=100)
        assert net._flit_hook is None


class TestVCOccupancyProbe:
    def test_occupancy_bounded_by_buffer_depth(self, cfg):
        """No single VC FIFO can ever hold more than vc_buffer_size flits."""
        probes = ProbeSet(build_probes("vc"), interval=50)
        run_openloop(cfg, probes, rate=0.35)  # push toward saturation
        assert probes.records
        for r in probes.records:
            assert 0 <= r["vc_occ_peak"] <= cfg.vc_buffer_size
            assert 0.0 <= r["vc_occ_mean"] <= cfg.vc_buffer_size
            assert all(0 <= v <= cfg.vc_buffer_size for v in r["per_node_vc_peak"])

    def test_occupancy_nonzero_under_load(self, cfg):
        probes = ProbeSet(build_probes("vc"), interval=50)
        run_openloop(cfg, probes, rate=0.35)
        assert max(r["vc_occ_peak"] for r in probes.records) > 0


class TestInjectionStallProbe:
    def test_stall_windows_sum_to_network_counter(self, cfg):
        probes = ProbeSet(build_probes("stall"), interval=100)
        # saturating multi-flit load -> source backpressure must happen
        net = drive_network(cfg, probes, rate=0.6, cycles=400, size=4)
        total = sum(r["injection_stalls"] for r in probes.records)
        assert total == net.injection_stalls
        assert total > 0


class TestInFlightProbe:
    def test_series_sane(self, cfg):
        probes = ProbeSet(build_probes("inflight"), interval=100)
        drive_network(cfg, probes)
        for r in probes.records:
            assert 0.0 <= r["in_flight_avg"] <= r["in_flight_peak"]
            assert r["in_flight_last"] <= r["in_flight_peak"]
        # the run fully drains, so the final sample is zero packets in flight
        assert probes.records[-1]["in_flight_last"] == 0


class TestWindowing:
    def test_window_bounds_partition_the_run(self, cfg):
        probes = ProbeSet(build_probes("channel"), interval=128)
        run_openloop(cfg, probes)
        recs = probes.records
        assert recs[0]["window_start"] == 0
        for prev, cur in zip(recs, recs[1:]):
            assert cur["window_start"] == prev["window_end"]
        for r in recs[:-1]:
            assert r["cycles"] == 128
        assert sum(r["cycles"] for r in recs) == recs[-1]["window_end"]


class TestJsonlRoundTrip:
    def test_records_stream_and_round_trip(self, cfg, tmp_path):
        """Acceptance: probe records are valid JSONL readable by analysis.io."""
        from repro.analysis.io import read_jsonl

        out = tmp_path / "probes.jsonl"
        probes = ProbeSet(build_probes("all"), interval=100, out=out)
        run_openloop(cfg, probes)
        loaded = read_jsonl(out)
        assert loaded == probes.records

    def test_closedloop_round_trip(self, cfg, tmp_path):
        from repro.analysis.io import read_jsonl

        out = tmp_path / "probes.jsonl"
        probes = ProbeSet(build_probes("channel,stall"), interval=50, out=out)
        BatchSimulator(
            cfg, batch_size=30, max_outstanding=2, observers=(probes,)
        ).run()
        loaded = read_jsonl(out)
        assert loaded == probes.records
        assert sum(r["delivered_flits"] for r in loaded) > 0

    def test_heatmap_renders_from_round_tripped_records(self, cfg, tmp_path):
        from repro.analysis import probe_heatmap
        from repro.analysis.io import read_jsonl

        out = tmp_path / "probes.jsonl"
        probes = ProbeSet(build_probes("channel"), interval=100, out=out)
        run_openloop(cfg, probes)
        art = probe_heatmap(read_jsonl(out))
        assert "per_node_ejected" in art
        assert "|" in art


class TestBackendEquivalence:
    """Probes must see the exact same simulation on either backend."""

    @pytest.mark.parametrize("kinds", ["all", "channel,stall"])
    def test_windowed_records_identical_across_backends(self, cfg, kinds, tmp_path):
        """Every windowed JSONL record — per-channel counts included — is
        identical between the object and vectorized backends."""
        from repro.analysis.io import read_jsonl

        records = {}
        for backend in ("object", "vectorized"):
            out = tmp_path / f"{backend}.jsonl"
            probes = ProbeSet(build_probes(kinds), interval=50, out=out)
            run_openloop(cfg.with_(backend=backend), probes, rate=0.3)
            assert probes.records
            assert read_jsonl(out) == probes.records
            records[backend] = probes.records
        assert records["object"] == records["vectorized"]

    def test_vectorized_hook_removed_on_detach(self, cfg):
        from repro.network.factory import build_network

        net = build_network(cfg.with_(backend="vectorized"))
        probes = ProbeSet(build_probes("channel"), interval=50)
        probes.begin(net)
        probes.finish(net)
        assert net._flit_hook is None


class TestZeroCostWhenDisabled:
    def test_no_flit_hook_without_probes(self, cfg):
        net = drive_network(cfg, cycles=100)
        assert net._flit_hook is None

    @pytest.mark.parametrize("backend", ["object", "vectorized"])
    def test_disabled_probes_allocate_nothing(self, cfg, backend):
        """With no observers no code from probes.py allocates during a run,
        on either network backend."""
        import repro.core.probes as probes_mod

        sim = OpenLoopSimulator(
            cfg.with_(backend=backend), warmup=50, measure=100, drain_limit=500
        )
        tracemalloc.start()
        try:
            sim.run(0.1)
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        probe_allocs = snap.filter_traces(
            [tracemalloc.Filter(True, probes_mod.__file__)]
        ).statistics("filename")
        assert probe_allocs == []


class TestIdealNetworkProbes:
    def test_probes_work_on_contention_free_fabric(self):
        """The ideal network has no channels/VCs; per-node deltas still flow."""
        from repro.network.ideal import IdealNetwork

        net = IdealNetwork(num_nodes=16)
        probes = ProbeSet(build_probes("all"), interval=10)
        probes.begin(net)
        for t in range(30):
            if t < 20:
                net.offer(net.make_packet(src=t % 16, dst=(t + 5) % 16, size=2))
            net.step()
            probes.on_cycle(net, t, [])
        probes.finish(net)
        recs = probes.records
        assert recs
        assert sum(r["ejected_flits"] for r in recs) == net.total_flits_delivered
        for r in recs:
            assert r["link_flits"] == 0
            assert r["vc_occ_peak"] == 0


class TestCustomProbe:
    def test_subclass_contributes_fields(self, cfg):
        class DeliveryCounter(Probe):
            name = "deliveries"

            def __init__(self):
                self.count = 0

            def on_cycle(self, net, now, delivered):
                self.count += len(delivered)

            def flush(self, net, window_cycles):
                fields = {"packets_delivered": self.count}
                self.count = 0
                return fields

        probes = ProbeSet([DeliveryCounter()], interval=100)
        net = drive_network(cfg, probes)
        total = sum(r["packets_delivered"] for r in probes.records)
        assert total == net.total_packets_delivered
