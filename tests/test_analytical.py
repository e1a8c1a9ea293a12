"""Tests for the analytical model behind ``repro estimate`` (repro.analytical).

The model is a zero-cycle estimator, so the tests are closed-form checks
against the simulator's own analytic formulas.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analytical import (
    DEFAULT_CAPACITY_FACTOR,
    AnalyticalModel,
    estimate,
    estimate_curve,
)
from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.network.base import BackendUnsupported


class TestZeroLoad:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=8, n=2),
            dict(k=4, n=2, topology="torus"),
            dict(k=8, n=1, topology="ring"),
            dict(k=4, n=2, router_delay=3),
            dict(k=4, n=2, packet_size="bimodal"),
        ],
    )
    def test_matches_openloop_analytic_formula(self, kwargs):
        # analytic_zero_load_latency is defined for uniform random traffic;
        # the model must reproduce it exactly on that pattern.
        cfg = NetworkConfig(**kwargs)
        model = AnalyticalModel(cfg)
        sim = OpenLoopSimulator(cfg)
        est = model.estimate(1e-6)
        assert est.zero_load_latency == pytest.approx(
            sim.analytic_zero_load_latency()
        )
        # at (numerically) zero load, latency is the zero-load latency
        assert est.avg_latency == pytest.approx(est.zero_load_latency, rel=1e-3)

    def test_transpose_hops_are_pattern_aware(self):
        # Unlike the simulator's uniform-only formula, the model walks the
        # actual traffic matrix: on a k x k mesh transpose packets travel
        # 2|x - y| hops (fixed points bypass the network at 0 hops), so the
        # mean is 4 * sum_d d*(k-d) / k^2.
        k = 4
        model = AnalyticalModel(NetworkConfig(k=k, n=2, traffic="transpose"))
        expected = 4.0 * sum(d * (k - d) for d in range(1, k)) / (k * k)
        est = model.estimate(1e-6)
        assert est.avg_hops == pytest.approx(expected)
        # T0 = path delay (H * link) + H * tr + tr + serialization
        assert est.zero_load_latency == pytest.approx(expected * 2 + 1)


class TestCurveShape:
    def test_latency_monotone_and_diverges_at_saturation(self):
        model = AnalyticalModel(NetworkConfig(k=8, n=2))
        rates = np.linspace(0.02, 1.0, 50)
        curve = model.curve(rates)
        lat = [e.avg_latency for e in curve]
        assert all(b >= a for a, b in zip(lat, lat[1:]))
        for e in curve:
            assert e.saturated == (e.injection_rate >= model.saturation_rate)
            assert math.isinf(e.avg_latency) == e.saturated
            # throughput never exceeds the saturation bound
            assert e.throughput <= model.saturation_rate + 1e-12

    def test_mesh_saturation_near_measured_knee(self):
        # The paper's 8x8 mesh saturates around 0.42 flits/cycle/node;
        # capacity_factor=0.85 over the theoretical 0.49 bound lands there.
        model = AnalyticalModel(NetworkConfig(k=8, n=2))
        assert model.saturation_rate == pytest.approx(0.418, abs=0.01)

    def test_torus_beats_mesh(self):
        mesh = AnalyticalModel(NetworkConfig(k=8, n=2))
        torus = AnalyticalModel(NetworkConfig(k=8, n=2, topology="torus"))
        assert torus.saturation_rate > mesh.saturation_rate

    def test_capacity_factor_scales_saturation(self):
        cfg = NetworkConfig(k=8, n=2)
        full = AnalyticalModel(cfg, capacity_factor=1.0)
        derated = AnalyticalModel(cfg, capacity_factor=0.5)
        assert derated.saturation_rate == pytest.approx(
            0.5 * full.saturation_rate
        )
        with pytest.raises(ValueError, match="capacity_factor"):
            AnalyticalModel(cfg, capacity_factor=0.0)

    def test_rate_validation(self):
        model = AnalyticalModel(NetworkConfig(k=4, n=2))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rate"):
                model.estimate(bad)


class TestPriorityClasses:
    CFG = NetworkConfig(
        k=8, n=2, classes="user+os:priority=1", arbitration="priority"
    )

    def test_high_priority_waits_less(self):
        model = AnalyticalModel(self.CFG)
        est = model.estimate(0.8 * model.saturation_rate)
        by_name = {c.name: c for c in est.classes}
        assert by_name["os"].avg_latency < by_name["user"].avg_latency
        assert by_name["os"].zero_load_latency == pytest.approx(
            by_name["user"].zero_load_latency
        )

    def test_low_class_saturates_first(self):
        model = AnalyticalModel(self.CFG)
        # scan upward: whenever exactly one class is saturated it must be
        # the low-priority one, and overall saturation reports inf latency
        seen_split = False
        for rate in np.linspace(0.05, 1.0, 40):
            est = model.estimate(float(rate))
            by_name = {c.name: c for c in est.classes}
            if by_name["user"].saturated and not by_name["os"].saturated:
                seen_split = True
                assert math.isinf(est.avg_latency)
                assert est.saturated
        assert seen_split

    def test_fcfs_arbiters_share_one_queue(self):
        cfg = NetworkConfig(k=8, n=2, classes="a+b:priority=3")
        model = AnalyticalModel(cfg)  # round_robin arbitration
        est = model.estimate(0.5 * model.saturation_rate)
        a, b = est.classes
        # same pattern + shared FCFS queue -> identical per-class latency
        assert a.avg_latency == pytest.approx(b.avg_latency)


class TestBackendWiring:
    def test_config_rejects_analytical_backend(self):
        # The estimator is built directly (AnalyticalModel), never selected
        # as a network backend.
        with pytest.raises(ValueError, match="unknown backend 'analytical'"):
            NetworkConfig(k=4, n=2, backend="analytical")

    def test_faults_rejected(self):
        cfg = NetworkConfig(k=4, n=2, faults="link:0-1")
        with pytest.raises(BackendUnsupported, match="fault"):
            AnalyticalModel(cfg)

    def test_module_level_conveniences(self):
        cfg = NetworkConfig(k=4, n=2)
        one = estimate(cfg, 0.1)
        curve = estimate_curve(cfg, [0.1, 0.2])
        assert one == curve[0]
        assert curve[1].avg_latency >= curve[0].avg_latency
        assert one.saturation_rate == pytest.approx(
            AnalyticalModel(cfg, capacity_factor=DEFAULT_CAPACITY_FACTOR)
            .saturation_rate
        )

