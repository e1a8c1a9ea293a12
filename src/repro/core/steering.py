"""Model-steered sweeps: spend cycle-accurate points only where they matter.

A latency–load curve is cheap everywhere except near its knee: the flat
region is predicted by the zero-cycle model (:mod:`repro.analytical`) to
within a few percent, while the knee — where latency bends toward the
saturation asymptote — is exactly where the queueing approximation is
weakest and measurement is worth its cost.  A steered sweep therefore:

1. builds the analytical model per axis combination and predicts the
   latency–load curve over the requested rates;
2. locates the curve's knee with :func:`find_knee` (Kneedle-style maximum
   sag below the first→last chord; a curve with no distinct bend knees at
   its last point);
3. enumerates the *dense* grid once, so every point carries the seed and
   cache key the dense sweep would give it (both derive from the point's
   coordinates alone), and runs one :class:`SweepLedger` over it: the
   rates outside each combination's window are filled from the model up
   front, the windows of every combination go to the transport in one
   dispatch — cache, retries, process pool or service, progress;
4. returns the records in dense canonical order, each tagged ``source:
   "simulated"`` or ``"analytical"``.  The tag is applied on the way out:
   the result store receives the untagged record, so a later dense sweep
   hits every point a steered one simulated.

The steering layer only decides *which* points deserve cycles; journal,
resume and remote execution are the ledger's.  The plan is a pure function
of config and rates, so a resumed run recomputes the same windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..analytical.model import (
    DEFAULT_CAPACITY_FACTOR,
    AnalyticalModel,
    sweep_record,
)
from ..config import NetworkConfig
from .parallel import SweepLedger, SweepRecords, enumerate_points, run_ledger, sweep_fingerprint

__all__ = ["SteeringPlan", "find_knee", "steered_sweep"]


def find_knee(xs: Sequence[float], ys: Sequence[float], *, tolerance: float = 0.05) -> int:
    """Index of the knee of curve ``ys(xs)`` (Kneedle-style, clipping inf).

    Both series are min-max normalized; the knee is the point of maximum
    sag below the chord from the first to the last point.  Non-finite
    ``ys`` (saturated points) are clipped one span above the finite
    maximum so divergence registers as a bend, not a NaN.  A curve whose
    maximum sag stays under ``tolerance`` — linear ramps, concave-down
    growth, constants — has no distinct knee and returns the last index,
    so steering falls back to sampling the high-load end of the grid.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = int(x.size)
    if n == 0:
        raise ValueError("need at least one point")
    if n < 3:
        return n - 1
    finite = np.isfinite(y)
    if not finite.any():
        return n - 1
    fmax = float(y[finite].max())
    fmin = float(y[finite].min())
    span = fmax - fmin
    yc = np.where(finite, y, fmax + (span if span > 0.0 else 1.0))
    xr = float(x.max() - x.min())
    yr = float(yc.max() - yc.min())
    if xr <= 0.0 or yr <= 0.0:
        return n - 1
    xn = (x - x.min()) / xr
    yn = (yc - yc.min()) / yr
    denom = xn[-1] - xn[0]
    if denom <= 0.0:
        return n - 1
    chord = yn[0] + (yn[-1] - yn[0]) * (xn - xn[0]) / denom
    sag = chord - yn
    if float(sag.max()) < tolerance:
        return n - 1
    return int(np.argmax(sag))


@dataclass(frozen=True)
class SteeringPlan:
    """How one axis combination was steered."""

    #: config-axis coordinates of the combination (empty for a pure
    #: rate sweep)
    overrides: Mapping[str, Any]
    #: the full rate grid, dense order
    rates: tuple[float, ...]
    #: the model's predicted mean latency per rate
    model_latency: tuple[float, ...]
    #: predicted saturation rate (flits/cycle/node)
    saturation_rate: float
    #: index into ``rates`` of the predicted knee
    knee_index: int
    #: indices that ran cycle-accurately (contiguous, centred on the knee)
    simulated_indices: tuple[int, ...]

    @property
    def knee_rate(self) -> float:
        return self.rates[self.knee_index]

    @property
    def simulated_fraction(self) -> float:
        return len(self.simulated_indices) / len(self.rates)


def _window(knee: int, total: int, budget: int) -> tuple[int, ...]:
    """A contiguous ``budget``-wide index window centred on ``knee``."""
    budget = max(1, min(budget, total))
    start = knee - (budget - 1) // 2
    start = max(0, min(start, total - budget))
    return tuple(range(start, start + budget))


def steered_sweep(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[..., Mapping[str, Any]],
    *,
    rates: Sequence[float],
    rate_axis: str = "rate",
    sim_fraction: float = 0.5,
    min_simulated: int = 2,
    knee_tolerance: float = 0.05,
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
    n_workers: int = 1,
    journal=None,
    resume: bool = False,
    resume_force: bool = False,
    progress=None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    cache=None,
    remote: Optional[str] = None,
) -> SweepRecords:
    """Run a knee-steered sweep over ``axes`` × ``rates``.

    Parameters mirror :func:`repro.core.parallel.run_sweep` (``remote``
    names a sweep-service address to simulate on instead of locally) plus
    the steering knobs: ``sim_fraction`` caps the share of rates simulated
    per combination (``min_simulated`` floors it so tiny grids still
    measure something), ``knee_tolerance``/``capacity_factor`` tune knee
    detection and the model.  The returned :class:`SweepRecords` holds the
    records in dense canonical order — simulated ones bit-identical to a
    dense ``run_sweep`` (modulo ``wall_seconds``), analytical ones tagged
    and NaN where the model has no answer — plus ``.plans``, one
    :class:`SteeringPlan` per combination.
    """
    if not 0.0 < sim_fraction <= 1.0:
        raise ValueError("sim_fraction must be in (0, 1]")
    if min_simulated < 1:
        raise ValueError("min_simulated must be >= 1")
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("rates must be non-empty")
    axes = dict(axes)
    budget = max(min_simulated, int(len(rates) * sim_fraction))  # _window clamps it
    points = enumerate_points(base, axes, {rate_axis: rates})
    plans: list[SteeringPlan] = []
    fills: dict[int, dict[str, Any]] = {}
    # Rate is the innermost axis: each combination is one run of len(rates)
    # consecutive points.
    for first in range(0, len(points), len(rates)):
        overrides = dict(points[first].overrides)
        model = AnalyticalModel(base.with_(**overrides), capacity_factor=capacity_factor)
        latencies = tuple(est.avg_latency for est in model.curve(rates))
        knee = find_knee(rates, latencies, tolerance=knee_tolerance)
        simulated = _window(knee, len(rates), budget)
        plans.append(
            SteeringPlan(
                overrides=overrides,
                rates=rates,
                model_latency=latencies,
                saturation_rate=model.saturation_rate,
                knee_index=knee,
                simulated_indices=simulated,
            )
        )
        for i, rate in enumerate(rates):
            if i not in simulated:
                start = time.perf_counter()
                rec = {**overrides, rate_axis: rate, **sweep_record(model, rate)}
                rec["wall_seconds"] = time.perf_counter() - start
                fills[first + i] = rec
    # The steering knobs decide which points are simulated, so they are part
    # of the journal's identity alongside the dense grid.
    knobs = (sim_fraction, min_simulated, knee_tolerance, capacity_factor)
    ledger = SweepLedger(
        points,
        journal=journal,
        fingerprint=sweep_fingerprint(base, axes, {rate_axis: rates, "steering": knobs}),
        header={"steered": True, "sim_fraction": sim_fraction},
        resume=resume,
        resume_force=resume_force,
        progress=progress,
        known=fills,
        tag=lambda index, rec: rec if index in fills else {**rec, "source": "simulated"},
    )
    out = run_ledger(
        ledger, base, runner,
        n_workers=n_workers, point_timeout=point_timeout, max_retries=max_retries,
        cache=cache, remote=remote,
    )
    out.plans = plans
    return out
