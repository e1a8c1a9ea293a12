"""Simulation output statistics.

Steady-state simulation results are estimates, and the paper's methodology
comparisons hinge on small relative differences — so the harness needs the
standard output-analysis tools:

* :func:`confidence_interval` — mean ± half-width at a given confidence,
  using a normal quantile (sample sizes here are in the thousands);
  degenerate samples (empty, all-NaN, a single value) degrade to NaN
  fields, never an exception (a saturated run must not crash the
  analysis) — only parameter errors raise;
* :func:`batch_means` — the batch-means method for correlated series
  (packet latencies from one run are *not* i.i.d.: congestion correlates
  neighbours, so the naive CI is too tight); short/degenerate samples
  degrade to NaN the same way;
* :func:`warmup_cutoff` — MSER-style truncation point selection for
  deciding how much of a run to discard as transient;
* :func:`index_of_dispersion` — windowed variance/mean ratio, the standard
  burstiness measure for arrival processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "confidence_interval",
    "batch_means",
    "warmup_cutoff",
    "index_of_dispersion",
]


# two-sided normal quantiles for common confidence levels
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class ConfidenceInterval:
    """mean ± half_width at ``confidence``."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """half_width / |mean| (inf for a zero mean)."""
        if self.mean == 0:
            return float("inf")
        return self.half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals intersect (difference not significant)."""
        return self.low <= other.high and other.low <= self.high


def _z_for(confidence: float) -> float:
    try:
        return _Z[confidence]
    except KeyError:
        raise ValueError(
            f"confidence must be one of {sorted(_Z)}, got {confidence}"
        ) from None


def confidence_interval(
    values, *, confidence: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation CI of the mean of (assumed independent) values.

    Degenerate samples degrade, never raise: fewer than 2 finite values
    (e.g. the all-NaN latency column of a saturated sweep point) yield a
    NaN ``half_width`` — and a NaN ``mean`` too when there are none — so
    summary pipelines keep flowing.  Only parameter errors (an unsupported
    ``confidence``) raise.
    """
    z = _z_for(confidence)
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    if v.size < 2:
        mean = float(v.mean()) if v.size else float("nan")
        return ConfidenceInterval(mean, float("nan"), confidence, int(v.size))
    half = z * v.std(ddof=1) / math.sqrt(v.size)
    return ConfidenceInterval(float(v.mean()), float(half), confidence, int(v.size))


def batch_means(
    values, *, num_batches: int = 20, confidence: float = 0.95
) -> ConfidenceInterval:
    """Batch-means CI for a *correlated* series (e.g. per-packet latencies).

    The series is cut into ``num_batches`` contiguous batches; batch
    averages are approximately independent when batches are much longer
    than the correlation length, so a CI over them is honest where the
    naive per-sample CI is not.

    Short samples degrade the same way :func:`confidence_interval` does:
    fewer than ``2 * num_batches`` finite values (batches too short to be
    meaningful) yield a NaN ``half_width`` and the plain sample mean (NaN
    when there are no values at all).  ``num_batches < 2`` and an
    unsupported ``confidence`` are parameter errors and still raise.
    """
    if num_batches < 2:
        raise ValueError("need at least 2 batches")
    z = _z_for(confidence)
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    if v.size < 2 * num_batches:
        mean = float(v.mean()) if v.size else float("nan")
        return ConfidenceInterval(mean, float("nan"), confidence, int(v.size))
    usable = v.size - v.size % num_batches
    means = v[:usable].reshape(num_batches, -1).mean(axis=1)
    half = z * means.std(ddof=1) / math.sqrt(num_batches)
    return ConfidenceInterval(float(means.mean()), float(half), confidence, int(v.size))


def warmup_cutoff(series, *, max_fraction: float = 0.5) -> int:
    """MSER-style truncation index for a time-ordered series.

    Returns the prefix length to discard: the cut point that minimizes the
    standard error of the remaining data — the classic MSER heuristic for
    initialization bias.  The cut is capped at ``max_fraction`` of the
    series so a pathological tail cannot eat the whole run.
    """
    v = np.asarray(series, dtype=np.float64)
    v = v[np.isfinite(v)]
    n = v.size
    if n < 8:
        return 0
    limit = int(n * max_fraction)
    stride = max(1, limit // 64)

    def _best(candidates, best_cut: int, best_score: float) -> tuple[int, float]:
        for cut in candidates:
            rest = v[cut:]
            score = rest.var() / rest.size
            if score < best_score:
                best_score = score
                best_cut = cut
        return best_cut, best_score

    # Coarse pass at ``stride`` granularity, then a fine scan of every cut
    # within one stride of the coarse winner — the coarse grid alone can
    # miss the true minimum by up to stride-1 samples, which on long series
    # mislocates the transient/steady-state boundary by hundreds of points.
    best_cut, best_score = _best(range(0, limit + 1, stride), 0, float("inf"))
    if stride > 1:
        lo = max(0, best_cut - stride + 1)
        hi = min(limit, best_cut + stride - 1)
        best_cut, best_score = _best(range(lo, hi + 1), best_cut, best_score)
    return best_cut


def index_of_dispersion(counts, *, window: int = 50) -> float:
    """Variance/mean ratio of windowed sums of an arrival-count series.

    1.0 for Poisson/Bernoulli-like arrivals; > 1 for bursty processes
    (grows with burst length).
    """
    c = np.asarray(counts, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if c.size < 2 * window:
        raise ValueError(f"need >= {2 * window} samples")
    usable = c.size - c.size % window
    sums = c[:usable].reshape(-1, window).sum(axis=1)
    mean = sums.mean()
    if mean == 0:
        return 0.0
    # Sample variance (ddof=1): the windowed sums are a finite sample of
    # the arrival process, and the population formula (ddof=0) biases the
    # ratio low — a seeded Poisson stream would read as sub-Poisson
    # (IoD < 1) purely from the estimator, worst with few windows.
    return float(sums.var(ddof=1) / mean)
