"""Integration tests for the paper's headline claims, at scaled parameters.

Each test pins one qualitative result from the paper; EXPERIMENTS.md maps
the quantitative comparison.  These are the slowest tests in the suite
(several seconds each) but they are the reason the repository exists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CmpConfig, NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.correlation import batch_vs_openloop
from repro.core.metrics import runtime_map
from repro.core.openloop import OpenLoopSimulator
from repro.core.reply import ProbabilisticReply
from repro.execdriven import CmpSystem, lu

OL = dict(warmup=250, measure=500, drain_limit=2500)


@pytest.mark.slow
class TestSectionIIIRouterParameters:
    def test_mesh_saturates_near_43_percent(self, mesh8):
        """§III-B: 'the network saturates at approximately 43%'."""
        sim = OpenLoopSimulator(mesh8, **OL)
        sat = sim.saturation_throughput(tolerance=0.02)
        assert sat == pytest.approx(0.43, abs=0.04)

    def test_router_delay_does_not_change_saturation(self, mesh8):
        """Fig. 3(a): tr shifts zero-load latency, not throughput."""
        sats = []
        for tr in (1, 4):
            sim = OpenLoopSimulator(mesh8.with_(router_delay=tr), **OL)
            sats.append(sim.saturation_throughput(tolerance=0.03))
        assert sats[1] == pytest.approx(sats[0], abs=0.05)

    def test_small_buffers_cut_throughput(self, mesh8):
        """Fig. 3(b): shallow buffers cost throughput, deep ones stop being
        the bottleneck.  Our router's credit loop is 3 cycles (the paper's
        simulator has a longer pipeline), so the knee sits at a smaller q:
        q=2 is the starved point here where q=4 was in the paper, and
        doubling buffers beyond the knee changes almost nothing.
        """
        sat = {}
        for q in (2, 4, 16, 32):
            sim = OpenLoopSimulator(mesh8.with_(vc_buffer_size=q), **OL)
            sat[q] = sim.saturation_throughput(tolerance=0.02)
        assert sat[2] < sat[16]
        assert 1.0 - sat[2] / sat[16] == pytest.approx(0.155, abs=0.13)
        assert abs(sat[32] - sat[16]) < 0.04  # buffers no longer bottleneck

    def test_batch_high_m_insensitive_to_tr(self, mesh8):
        """Fig. 4(a): at large m (saturated), tr barely matters; at m=1 the
        runtime tracks the zero-load ratio."""
        ratio = {}
        for m in (1, 32):
            r1 = BatchSimulator(mesh8, batch_size=60, max_outstanding=m).run().runtime
            r2 = BatchSimulator(
                mesh8.with_(router_delay=2), batch_size=60, max_outstanding=m
            ).run().runtime
            ratio[m] = r2 / r1
        assert ratio[1] == pytest.approx(1.5, abs=0.12)
        assert ratio[32] < 1.25


@pytest.mark.slow
class TestSectionIIITopology:
    def test_openloop_ordering(self):
        """Fig. 6(a): ring worst in latency and throughput; torus higher
        zero-load latency than mesh (folded links) but more throughput
        headroom when VCs allow."""
        zl = {}
        sat = {}
        for topo in ("mesh", "torus", "ring"):
            cfg = NetworkConfig(topology=topo, num_vcs=4)
            sim = OpenLoopSimulator(cfg, **OL)
            zl[topo] = sim.zero_load_latency()
            sat[topo] = sim.saturation_throughput(tolerance=0.03)
        assert zl["ring"] > zl["torus"] > zl["mesh"]
        assert sat["ring"] < sat["mesh"]
        assert sat["torus"] > sat["mesh"]

    def test_mesh_center_fast_torus_flat_fig7(self):
        """Fig. 7: the mesh's center nodes finish earlier than the edge;
        the edge-symmetric torus is nearly flat."""
        spreads = {}
        for topo in ("mesh", "torus"):
            cfg = NetworkConfig(topology=topo)
            res = BatchSimulator(cfg, batch_size=80, max_outstanding=4).run()
            rmap = runtime_map(res.node_finish, 8)
            spreads[topo] = rmap.max() - rmap.min()
            if topo == "mesh":
                center = rmap[3:5, 3:5].mean()
                corners = np.array(
                    [rmap[0, 0], rmap[0, 7], rmap[7, 0], rmap[7, 7]]
                ).mean()
                assert center < corners
        assert spreads["torus"] < spreads["mesh"]


class TestSectionIIIRouting:
    def test_val_doubles_zero_load_latency_uniform(self, mesh8):
        """Fig. 9(a): VAL's two-phase route costs ~2x latency at low load."""
        lat = {}
        for alg in ("dor", "val"):
            sim = OpenLoopSimulator(mesh8.with_(routing=alg), **OL)
            lat[alg] = sim.zero_load_latency()
        assert lat["val"] / lat["dor"] == pytest.approx(2.0, abs=0.35)

    def test_val_negligible_at_m1_transpose_fig10(self):
        """Fig. 10(b)/§III-D: under transpose at m=1, VAL's higher average
        latency costs almost nothing (~1.7% in the paper) because the
        corner-to-corner worst case is minimal either way."""
        runtimes = {}
        for alg in ("dor", "val"):
            cfg = NetworkConfig(routing=alg, traffic="transpose")
            runtimes[alg] = BatchSimulator(
                cfg, batch_size=80, max_outstanding=1
            ).run().runtime
        gap = runtimes["val"] / runtimes["dor"] - 1.0
        assert abs(gap) < 0.08

    def test_val_average_latency_much_higher_at_m1_transpose(self):
        """Fig. 11: the same experiment's *average* request latency is far
        higher under VAL — the worst-case runtime just doesn't care."""
        lat = {}
        for alg in ("dor", "val"):
            cfg = NetworkConfig(routing=alg, traffic="transpose")
            lat[alg] = BatchSimulator(
                cfg, batch_size=80, max_outstanding=1
            ).run().avg_request_latency
        assert lat["val"] > 1.25 * lat["dor"]


@pytest.mark.slow
class TestSectionIIICorrelation:
    def test_fig5_router_delay_correlation(self, mesh8):
        """Fig. 5: batch runtime vs open-loop latency at matched load
        correlates highly for small m."""
        configs = [(tr, mesh8.with_(router_delay=tr)) for tr in (1, 2, 4)]
        res = batch_vs_openloop(
            configs, m_values=(1, 2, 4), batch_size=80, openloop_kwargs=OL
        )
        assert res.r > 0.97


class TestSectionIVValidation:
    def test_enhanced_models_shrink_tr_impact_toward_execdriven(self):
        """§IV-D: the baseline batch model wildly overpredicts the impact
        of tr (4.2x at tr=8 vs ~1.2-1.7x measured); NAR+reply modelling
        pulls it into range."""
        cfg = NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4)
        cfg8 = cfg.with_(router_delay=8)

        def ratio(**kw):
            a = BatchSimulator(cfg, batch_size=60, max_outstanding=8, **kw).run()
            b = BatchSimulator(cfg8, batch_size=60, max_outstanding=8, **kw).run()
            return b.runtime / a.runtime

        base = ratio()
        enhanced = ratio(nar=0.02, reply_model=ProbabilisticReply(10, 300, 0.2))
        exec_ratio = {}
        for tr in (1, 8):
            ccfg = CmpConfig(network=cfg.with_(router_delay=tr))
            exec_ratio[tr] = CmpSystem(lu(4000), ccfg, seed=2).run().cycles
        measured = exec_ratio[8] / exec_ratio[1]
        assert base > 2.0  # baseline batch model overpredicts
        assert abs(enhanced - measured) < abs(base - measured)

    def test_enhanced_correlation_beats_baseline(self):
        """Figs. 15 vs 19 in miniature: correlating exec-driven runtimes
        against the batch model improves when the batch model gains the
        NAR + reply extensions."""
        trs = (1, 4, 8)
        exec_rt = []
        for tr in trs:
            ccfg = CmpConfig(
                network=NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, router_delay=tr)
            )
            exec_rt.append(CmpSystem(lu(4000), ccfg, seed=2).run().cycles)
        base_rt, enh_rt = [], []
        for tr in trs:
            cfg = NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, router_delay=tr)
            base_rt.append(
                BatchSimulator(cfg, batch_size=60, max_outstanding=8).run().runtime
            )
            enh_rt.append(
                BatchSimulator(
                    cfg,
                    batch_size=60,
                    max_outstanding=8,
                    nar=0.02,
                    reply_model=ProbabilisticReply(10, 300, 0.2),
                ).run().runtime
            )
        exec_n = np.array(exec_rt) / exec_rt[0]
        base_n = np.array(base_rt) / base_rt[0]
        enh_n = np.array(enh_rt) / enh_rt[0]
        # the enhanced model's *slope* against exec-driven is closer to 1
        base_slope = np.polyfit(exec_n, base_n, 1)[0]
        enh_slope = np.polyfit(exec_n, enh_n, 1)[0]
        assert abs(enh_slope - 1) < abs(base_slope - 1)
