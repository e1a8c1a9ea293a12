"""Tests for the correlation methodology (paper §III-B steps 1-4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.correlation import (
    CorrelationResult,
    ScatterPair,
    batch_vs_openloop,
    correlate,
    normalize_per_group,
    pearson,
)
from repro.core.parallel import run_sweep


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_is_small(self):
        rng = np.random.default_rng(0)
        x = rng.random(500)
        y = rng.random(500)
        assert abs(pearson(x, y)) < 0.15

    def test_drops_non_finite(self):
        r = pearson([1, 2, 3, float("inf")], [2, 4, 6, 8])
        assert r == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pearson([1], [1])
        with pytest.raises(ValueError):
            pearson([1, float("nan")], [1, 2])

    def test_constant_series_is_nan(self):
        # Regression: zero-variance input used to fabricate r=1.0 (identical
        # constants) or r=0.0 — correlation is undefined there, so NaN.
        assert math.isnan(pearson([1, 1, 1], [1, 1, 1]))
        assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))
        assert math.isnan(pearson([1, 2, 3], [5, 5, 5]))

    def test_constant_series_surfaces_through_correlate(self):
        # A degenerate scatter must report NaN from the driver too, not a
        # silently perfect correlation.
        res = correlate(
            [1.0, 1.0, 1.0],
            [1.0, 2.0, 3.0],
            keys=[("a",), ("b",), ("c",)],
            groups=[0, 0, 0],
            baselines=[True, False, False],
        )
        assert math.isnan(res.r)
        assert len(res.pairs) == 3


class TestNormalizePerGroup:
    def test_paper_fig5_normalization(self):
        # two m groups, baseline tr=1 in each; values normalize per group
        values = [10, 15, 40, 100, 150, 380]
        groups = [1, 1, 1, 4, 4, 4]
        base = [True, False, False, True, False, False]
        out = normalize_per_group(values, groups, base)
        assert list(out) == [1.0, 1.5, 4.0, 1.0, 1.5, 3.8]

    def test_missing_baseline_raises(self):
        with pytest.raises(ValueError):
            normalize_per_group([1, 2], [1, 2], [True, False])

    def test_duplicate_baseline_raises(self):
        with pytest.raises(ValueError):
            normalize_per_group([1, 2], [1, 1], [True, True])


class TestCorrelate:
    def test_builds_pairs_and_r(self):
        res = correlate(
            [10, 20, 5, 12],
            [100, 210, 50, 115],
            keys=[("a", 1), ("b", 1), ("a", 2), ("b", 2)],
            groups=[1, 1, 2, 2],
            baselines=[True, False, True, False],
        )
        assert isinstance(res, CorrelationResult)
        assert len(res.pairs) == 4
        assert res.r > 0.95
        assert res.pairs[0].x == 1.0 and res.pairs[0].y == 1.0

    def test_filtered_recomputes(self):
        pairs = [
            ScatterPair(("a", m), m, float(m), float(m)) for m in (1, 2, 3, 4)
        ] + [ScatterPair(("bad", 9), 9, 1.0, 9.0)]
        full = CorrelationResult(tuple(pairs), 0.5)
        res = full.filtered(lambda p: p.group != 9)
        assert len(res.pairs) == 4
        assert res.r == pytest.approx(1.0)


class TestBatchVsOpenLoop:
    def test_router_delay_study_correlates(self, mesh4):
        """Miniature Fig. 5(a): tr in {1,2}, m in {1,4}: r should be high."""
        configs = [(tr, mesh4.with_(router_delay=tr)) for tr in (1, 2)]
        res = batch_vs_openloop(
            configs,
            m_values=(1, 4),
            batch_size=60,
            openloop_kwargs=dict(warmup=200, measure=400, drain_limit=2000),
        )
        assert len(res.pairs) == 4
        assert res.r > 0.85  # paper reaches 0.995 at b=1000; this is scaled

    def test_worst_case_option(self, mesh4):
        configs = [(tr, mesh4.with_(router_delay=tr)) for tr in (1, 2)]
        res = batch_vs_openloop(
            configs,
            m_values=(1,),
            batch_size=30,
            worst_case=True,
            openloop_kwargs=dict(warmup=150, measure=300, drain_limit=2000),
        )
        assert res.r == pytest.approx(1.0, abs=0.2)


class TestSweep:
    def test_sweep_runs_runner(self, mesh4):
        records = run_sweep(
            mesh4,
            {"router_delay": (1, 2)},
            lambda cfg: {"tr_seen": cfg.router_delay},
        )
        assert [r["tr_seen"] for r in records] == [1, 2]
        assert all("wall_seconds" in r for r in records)

    def test_sweep_extra_axes(self, mesh4):
        records = run_sweep(
            mesh4,
            {"router_delay": (1, 2)},
            lambda cfg, m: {"product": cfg.router_delay * m},
            extra_axes={"m": (1, 4)},
        )
        assert len(records) == 4
        assert {r["product"] for r in records} == {1, 4, 2, 8}
