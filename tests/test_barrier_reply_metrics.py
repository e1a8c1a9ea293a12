"""Tests for the barrier model, reply models, and metrics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.barrier import BarrierSimulator
from repro.core.metrics import node_distribution, runtime_map
from repro.core.reply import (
    FixedReply,
    ImmediateReply,
    PerClassReply,
    ProbabilisticReply,
)


class TestBarrier:
    def test_completes(self, mesh4):
        res = BarrierSimulator(mesh4, batch_size=30).run()
        assert res.completed
        assert res.runtime > 0

    def test_throughput_near_saturation(self, mesh4):
        """§II-B2: the barrier model 'essentially measures the throughput
        of the network'."""
        res = BarrierSimulator(mesh4, batch_size=200).run()
        assert 0.3 < res.throughput < 0.7  # ~ open-loop saturation band

    def test_incomplete_flagged(self, mesh4):
        res = BarrierSimulator(mesh4, batch_size=100, max_cycles=50).run()
        assert not res.completed

    def test_validation(self, mesh4):
        with pytest.raises(ValueError):
            BarrierSimulator(mesh4, batch_size=0)


class TestReplyModels:
    def test_immediate(self):
        gen = rng_mod.make_generator(1, "r")
        m = ImmediateReply()
        assert m.delay(gen) == 0
        assert m.mean == 0.0

    def test_fixed(self):
        gen = rng_mod.make_generator(1, "r")
        m = FixedReply(50)
        assert m.delay(gen) == 50
        assert m.mean == 50.0
        with pytest.raises(ValueError):
            FixedReply(-1)

    def test_probabilistic_values_and_mean(self):
        gen = rng_mod.make_generator(1, "r")
        m = ProbabilisticReply(20, 300, 0.1)
        draws = [m.delay(gen) for _ in range(3000)]
        assert set(draws) == {20, 320}
        assert np.mean(draws) == pytest.approx(50, rel=0.2)
        assert m.mean == pytest.approx(50.0)

    def test_probabilistic_extremes(self):
        gen = rng_mod.make_generator(1, "r")
        assert ProbabilisticReply(20, 300, 0.0).delay(gen) == 20
        assert ProbabilisticReply(20, 300, 1.0).delay(gen) == 320

    def test_probabilistic_validation(self):
        with pytest.raises(ValueError):
            ProbabilisticReply(l2_miss_rate=1.5)
        with pytest.raises(ValueError):
            ProbabilisticReply(l2_latency=-1)

    def test_per_class_dispatch(self):
        gen = rng_mod.make_generator(1, "r")
        m = PerClassReply({0: FixedReply(10), 1: FixedReply(99)}, default=FixedReply(5))
        assert m.delay(gen, 0) == 10
        assert m.delay(gen, 1) == 99
        assert m.delay(gen, 7) == 5
        assert m.mean == 10.0


class TestMetrics:
    def test_node_distribution_fractions_sum_to_one(self):
        edges, fracs = node_distribution(np.arange(64, dtype=float), bins=8)
        assert len(edges) == 9
        assert fracs.sum() == pytest.approx(1.0)

    def test_node_distribution_ignores_nan(self):
        vals = np.array([1.0, 2.0, np.nan, 3.0])
        _, fracs = node_distribution(vals, bins=2)
        assert fracs.sum() == pytest.approx(1.0)

    def test_node_distribution_rejects_empty(self):
        with pytest.raises(ValueError):
            node_distribution(np.array([np.nan]))

    def test_runtime_map_shape_and_normalization(self):
        finish = np.arange(1, 17, dtype=np.int64)
        m = runtime_map(finish, 4)
        assert m.shape == (4, 4)
        assert m.max() == 1.0
        assert m[0, 0] == pytest.approx(1 / 16)

    def test_runtime_map_rejects_bad_input(self):
        with pytest.raises(ValueError):
            runtime_map(np.arange(10), 4)
        with pytest.raises(ValueError):
            runtime_map(np.full(16, -1), 4)
