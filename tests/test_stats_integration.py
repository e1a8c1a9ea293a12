"""Statistics applied to real simulation output (end-to-end)."""

from __future__ import annotations

from repro.analysis import batch_means, confidence_interval, warmup_cutoff
from repro.core.openloop import OpenLoopSimulator


class TestLatencyStatistics:
    def test_repeated_runs_fall_inside_batch_means_ci(self, mesh4):
        """A CI from one run's latencies should cover another seed's mean —
        using batch means, since per-packet latencies are correlated."""
        sim = OpenLoopSimulator(mesh4, warmup=200, measure=800, drain_limit=3000)
        a = sim.run(0.2, seed=11)
        b = sim.run(0.2, seed=22)
        ci = batch_means(a.latencies, num_batches=10)
        # generous: the two estimates must be statistically compatible
        assert abs(b.avg_latency - ci.mean) < 4 * ci.half_width + 0.5

    def test_batch_means_wider_than_naive_on_latencies(self, mesh4):
        sim = OpenLoopSimulator(mesh4, warmup=200, measure=800, drain_limit=3000)
        res = sim.run(0.45)  # high load: strong temporal correlation
        naive = confidence_interval(res.latencies)
        honest = batch_means(res.latencies, num_batches=10)
        assert honest.half_width >= naive.half_width * 0.9

    def test_warmup_cutoff_on_cold_start_latencies(self, mesh4):
        """A run with no warmup phase shows a cold-start transient that the
        MSER heuristic is allowed to trim; after the configured warmup the
        cutoff should be modest."""
        cold = OpenLoopSimulator(mesh4, warmup=0, measure=1000, drain_limit=3000)
        res = cold.run(0.4)
        cut = warmup_cutoff(res.latencies)
        assert 0 <= cut <= len(res.latencies) // 2
