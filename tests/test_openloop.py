"""Tests for the open-loop measurement harness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.openloop import OpenLoopSimulator
from repro.network import Network


@pytest.fixture
def sim(mesh4):
    return OpenLoopSimulator(mesh4, warmup=200, measure=400, drain_limit=2500)


class TestRun:
    def test_low_load_latency_near_zero_load(self, sim):
        res = sim.run(0.02)
        assert not res.saturated
        analytic = sim.analytic_zero_load_latency()
        assert res.avg_latency == pytest.approx(analytic, rel=0.15)

    def test_latency_monotonic_in_load(self, sim):
        lats = [sim.run(r).avg_latency for r in (0.05, 0.25, 0.40)]
        assert lats[0] < lats[1] < lats[2]

    def test_throughput_tracks_offered_below_saturation(self, sim):
        res = sim.run(0.2)
        assert res.throughput == pytest.approx(0.2, abs=0.03)

    def test_saturation_reports_infinite_latency(self, mesh8):
        # The 8x8 baseline saturates at ~0.43 (paper §III-B), so 0.9 offered
        # cannot drain: the run must flag saturation and report inf latency.
        sim = OpenLoopSimulator(mesh8, warmup=150, measure=300, drain_limit=600)
        res = sim.run(0.9)
        assert res.saturated
        assert res.avg_latency == float("inf")
        assert res.p99_latency == float("inf")

    def test_per_node_latency_populated(self, sim):
        res = sim.run(0.1)
        assert res.per_node_latency.shape == (16,)
        assert np.isfinite(res.per_node_latency).all()
        assert res.worst_node_latency == pytest.approx(np.nanmax(res.per_node_latency))

    def test_measured_count_matches_rate(self, sim):
        res = sim.run(0.1)
        expected = 0.1 * 16 * 400
        assert res.num_measured == pytest.approx(expected, rel=0.25)

    def test_deterministic_per_seed(self, sim):
        a = sim.run(0.1, seed=42)
        b = sim.run(0.1, seed=42)
        assert a.avg_latency == b.avg_latency
        assert a.num_measured == b.num_measured

    def test_rejects_bad_rate(self, sim):
        with pytest.raises(ValueError):
            sim.run(0.0)
        with pytest.raises(ValueError):
            sim.run(1.5)

    def test_bimodal_rate_accounts_for_packet_size(self, mesh4):
        cfg = mesh4.with_(packet_size="bimodal")
        sim = OpenLoopSimulator(cfg, warmup=200, measure=400, drain_limit=3000)
        res = sim.run(0.2)  # 0.2 flits => 0.08 packets/cycle/node
        assert res.num_measured == pytest.approx(0.08 * 16 * 400, rel=0.25)

    def test_avg_hops_reported(self, sim):
        res = sim.run(0.05)
        # 4x4 mesh uniform average minimal distance = 2*(k-1/ ... ) ~ 2.5
        assert 2.0 < res.avg_hops < 3.0


class _EdgeReads:
    """Observer keeping ``total_flits_delivered`` as seen at the top of
    every cycle (keyed by that cycle)."""

    def begin(self, net) -> None:
        self.reads = {net.now: net.total_flits_delivered}

    def on_cycle(self, net, now, delivered) -> None:
        self.reads[net.now] = net.total_flits_delivered

    def finish(self, net) -> None:
        pass


class _OfferLog(Network):
    """A network remembering (cycle, measured) for every offered packet."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.offers: list[tuple[int, bool]] = []

    def offer(self, packet) -> None:
        self.offers.append((self.now, packet.measured))
        super().offer(packet)


class TestMeasurementWindow:
    """The warm-up/measure/drain window belongs to the open-loop driver."""

    W, M = 20, 50

    def test_workload_satisfies_the_engine_protocol(self):
        from repro.core.engine import Workload
        from repro.core.openloop import _OpenLoopWorkload

        assert isinstance(_OpenLoopWorkload([], warmup=0, measure=1), Workload)

    @pytest.mark.parametrize("warmup", [0, W])
    def test_tagged_packets_are_those_created_in_the_window(self, mesh4, warmup):
        nets = []

        def factory(cfg):
            nets.append(_OfferLog(cfg))
            return nets[-1]

        sim = OpenLoopSimulator(
            mesh4, warmup=warmup, measure=self.M, drain_limit=2000, network_factory=factory
        )
        res = sim.run(0.2)
        offers = nets[0].offers
        assert not res.saturated
        assert offers[-1][0] >= warmup + self.M  # traffic keeps flowing in the drain
        assert all(tagged == (warmup <= t < warmup + self.M) for t, tagged in offers)
        assert res.num_measured == sum(tagged for _, tagged in offers) > 0

    @pytest.mark.parametrize("drain_limit", [0, 2000], ids=["ends-at-edge", "drained"])
    def test_throughput_is_flits_between_edge_reads(self, mesh4, drain_limit):
        """Throughput = flits delivered between the reads at the top of the
        two edge cycles / (measure * n) — also when the run stops at the
        closing edge, whose read still happens."""
        edges = _EdgeReads()
        sim = OpenLoopSimulator(
            mesh4, warmup=self.W, measure=self.M, drain_limit=drain_limit,
            observers=(edges,),
        )
        res = sim.run(0.2)
        end = self.W + self.M
        if drain_limit == 0:
            assert max(edges.reads) == end  # the run stopped at the closing edge
        flits = edges.reads[end] - edges.reads[self.W]
        assert flits > 0
        assert res.throughput == flits / (self.M * mesh4.num_nodes)

    def test_declined_drain_sees_the_closing_read(self, mesh4):
        edges, asked = _EdgeReads(), []
        sim = OpenLoopSimulator(
            mesh4, warmup=self.W, measure=self.M, drain_limit=2000, observers=(edges,)
        )
        res = sim.run(0.2, drain_if=lambda tp: asked.append(tp) or False)
        end = self.W + self.M
        assert max(edges.reads) == end
        expected = (edges.reads[end] - edges.reads[self.W]) / (self.M * mesh4.num_nodes)
        assert asked == [expected] == [res.throughput]

    @pytest.mark.parametrize("window", [dict(warmup=-1), dict(measure=-1)])
    def test_negative_window_raises(self, mesh4, window):
        sim = OpenLoopSimulator(mesh4, **{"warmup": 10, "measure": 10, **window})
        with pytest.raises(ValueError, match="must be >= 0"):
            sim.run(0.1)


class TestSweeps:
    def test_sweep_stops_after_saturation(self, mesh8):
        sim = OpenLoopSimulator(mesh8, warmup=150, measure=300, drain_limit=600)
        results = sim.latency_load_sweep([0.05, 0.2, 0.9, 0.95])
        assert len(results) == 3  # 0.9 saturates; 0.95 skipped
        assert results[-1].saturated

    def test_sweep_full_when_requested(self, mesh4):
        sim = OpenLoopSimulator(mesh4, warmup=100, measure=200, drain_limit=400)
        results = sim.latency_load_sweep([0.9, 0.95], stop_after_saturation=False)
        assert len(results) == 2

    def test_zero_load_latency(self, sim):
        zl = sim.zero_load_latency()
        assert zl == pytest.approx(sim.analytic_zero_load_latency(), rel=0.15)

    def test_saturation_throughput_in_plausible_band(self, mesh4):
        sim = OpenLoopSimulator(mesh4, warmup=200, measure=400, drain_limit=2000)
        sat = sim.saturation_throughput(tolerance=0.03)
        # small meshes saturate high: 4x4 DOR uniform random lands ~0.7
        assert 0.5 < sat < 0.9

    def test_analytic_zero_load_scales_with_tr(self, mesh4):
        s1 = OpenLoopSimulator(mesh4)
        s2 = OpenLoopSimulator(mesh4.with_(router_delay=2))
        # exact ratio is (3h+2)/(2h+1); it approaches the paper's 1.5 as
        # the hop count grows (8x8's 14-hop corner routes dominate there)
        h = 2.5  # 4x4 uniform average minimal hops
        ratio = s2.analytic_zero_load_latency() / s1.analytic_zero_load_latency()
        assert ratio == pytest.approx((3 * h + 2) / (2 * h + 1), abs=0.02)


class TestBatchedDestinationDraws:
    def test_one_call_per_cycle_equals_one_call_per_packet(self, mesh4):
        """A size distribution that claims the generator forces the
        per-packet loop; the batched path must reproduce it exactly."""
        from repro.traffic import FixedSize

        class ClaimsRng(FixedSize):
            uses_rng = True

        runs = []
        for sizes in (FixedSize(2), ClaimsRng(2)):
            sim = OpenLoopSimulator(
                mesh4.with_(seed=4), sizes=sizes, warmup=50, measure=150, drain_limit=1500
            )
            res = sim.run(0.6)
            runs.append((res.latencies.tolist(), res.throughput, res.avg_hops))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 100


def _reference_saturation(sim, *, tolerance, seed, track_fraction=0.95, lo=0.02, hi=1.0):
    """``saturation_throughput``'s bisection on plain, always-drained runs."""
    if sim.run(lo, seed=seed).saturated:
        return 0.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        res = sim.run(mid, seed=seed)
        if not res.saturated and res.throughput >= track_fraction * mid:
            lo = mid
        else:
            hi = mid
    return lo


class TestWindowEdgeDecision:
    """``run(drain_if=)``: asked once when the window closes; declining the
    drain leaves exactly the ``drain_limit=0`` run."""

    WINDOWS = dict(warmup=60, measure=120)

    @pytest.mark.parametrize(
        "kw,rate",
        [
            (dict(), 0.9),  # saturated: tagged packets left in flight
            (dict(), 0.05),  # light: most of the window already delivered
            (dict(topology="torus", classes="a:share=0.7+b:share=0.3"), 0.8),
        ],
        ids=["mesh-0.9", "mesh-0.05", "torus-2class-0.8"],
    )
    def test_cut_run_equals_drain_limit_zero_run(self, mesh4, kw, rate):
        cfg = mesh4.with_(seed=5, **kw)
        asked = []

        def decline(throughput):
            asked.append(throughput)
            return False

        cut = OpenLoopSimulator(cfg, drain_limit=900, **self.WINDOWS).run(rate, drain_if=decline)
        ref = OpenLoopSimulator(cfg, drain_limit=0, **self.WINDOWS).run(rate)
        assert asked == [ref.throughput]  # once, with the window's final value
        for f in dataclasses.fields(ref):
            got, want = getattr(cut, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want, err_msg=f.name)
            else:
                assert got == want, f.name

    def test_accepting_the_drain_is_the_plain_run(self, mesh4):
        sim = OpenLoopSimulator(mesh4.with_(seed=5), drain_limit=900, **self.WINDOWS)
        plain, kept = sim.run(0.3), sim.run(0.3, drain_if=lambda tp: True)
        assert not plain.saturated
        assert kept.latencies.tolist() == plain.latencies.tolist()
        assert (kept.throughput, kept.avg_latency) == (plain.throughput, plain.avg_latency)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(topology="torus"),
            dict(topology="ring"),
            dict(routing="val"),
            dict(vc_buffer_size=1),
        ],
        ids=["mesh", "torus", "ring", "val", "q1"],
    )
    def test_saturation_search_matches_always_drained_bisection(self, mesh4, kw, seed):
        """Same value to the last digit, strictly fewer simulated cycles."""
        cfg = mesh4.with_(**kw)
        cycles = {}
        values = {}
        for name in ("reference", "search"):
            built: list = []
            sim = OpenLoopSimulator(
                cfg, warmup=60, measure=120, drain_limit=900,
                network_factory=lambda c: built.append(Network(c)) or built[-1],
            )
            if name == "reference":
                values[name] = _reference_saturation(sim, tolerance=0.1, seed=seed)
            else:
                values[name] = sim.saturation_throughput(tolerance=0.1, seed=seed)
            cycles[name] = sum(net.now for net in built)
        assert values["search"] == values["reference"] > 0.0
        assert cycles["search"] < cycles["reference"]

    @pytest.mark.parametrize("seed", [2, 3, 6, 10, 11])
    def test_lower_bracket_is_judged_on_drain_alone(self, mesh4, seed):
        """At rate 0.02 a 4x4 mesh offers ~190 flits per 600-cycle window, so
        the 5 % tracking test there is a coin flip: these seeds used to fail
        it and return 0.0 where their neighbours returned 0.72-0.79."""
        sim = OpenLoopSimulator(mesh4, warmup=300, measure=600, drain_limit=6000)
        lo = sim.run(0.02, seed=seed)
        assert not lo.saturated and lo.throughput < 0.95 * 0.02  # the old test fails here
        # One bisection step is enough to tell 0.0 from a bracketed search.
        assert sim.saturation_throughput(tolerance=0.5, seed=seed) == 0.51
