"""Design-space sweep driver.

The framework's reason to exist is fast design-space exploration (the paper
contrasts minutes of synthetic simulation against 88.5-hour GEMS runs).
:func:`sweep` runs a callable over the cartesian product of configuration
overrides and collects flat result records, ready for tabulation or
correlation.

Execution is delegated to :mod:`repro.core.parallel`: ``n_workers`` fans
points out over a process pool (with per-point seeds derived via
:func:`repro.rng.sweep_seed`, so serial and parallel runs agree
bit-for-bit), ``journal``/``resume`` checkpoint completed points to a
JSON-lines file, and ``progress`` observes completion rate and ETA.  The
default ``n_workers=1`` runs in-process, where any callable (lambdas
included) works; pool mode needs a picklable runner.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..config import NetworkConfig
from .parallel import enumerate_points, run_sweep

__all__ = ["sweep", "product_configs"]


def product_configs(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    *,
    derive_seeds: bool = False,
) -> list[tuple[dict[str, Any], NetworkConfig]]:
    """All configurations in the cartesian product of ``axes`` overrides.

    Returns ``(point, config)`` pairs where ``point`` maps axis name to the
    chosen value — e.g. ``axes={"router_delay": (1, 2, 4)}`` yields three
    configs differing only in tr.  With ``derive_seeds`` each config also
    carries a per-point child seed (:func:`repro.rng.sweep_seed`); the
    default keeps the base seed on every config, matching the historical
    behaviour the benchmark harnesses were calibrated against.
    """
    return [
        (dict(p.overrides), base.with_(**{**p.overrides, "seed": p.seed}))
        for p in enumerate_points(base, axes, derive_seeds=derive_seeds)
    ]


def sweep(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[[NetworkConfig], Mapping[str, Any]],
    **executor: Any,
) -> list[dict[str, Any]]:
    """Run ``runner`` over every configuration point; collect records.

    ``axes`` vary :class:`NetworkConfig` fields.  ``extra_axes`` vary
    non-config parameters (e.g. the batch model's ``m``): their values are
    passed to ``runner`` as keyword arguments.  Each record contains the
    point's coordinates, the runner's outputs, and the wall-clock seconds
    the point took (the paper's speed claim is itself an experiment).

    A runner that raises produces a record with ``failed=True`` and the
    exception string under ``"error"`` while the rest of the sweep
    completes.  Every keyword is :func:`repro.core.parallel.run_sweep`'s
    (``extra_axes``, ``n_workers``, ``journal``/``resume``,
    ``point_timeout``, ``progress``, ``derive_seeds``, ...).  ``cache``
    points at a content-addressed result store (:mod:`repro.core.cache`):
    previously computed points replay from disk instead of re-simulating,
    bit-identically.
    """
    return run_sweep(base, axes, runner, **executor)
