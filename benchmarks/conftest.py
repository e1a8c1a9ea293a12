"""Shared machinery for the per-figure benchmark harnesses.

Every ``test_fig*`` / ``test_table*`` file regenerates one table or figure
from the paper: it runs the (scaled-down) experiment, prints the same
rows/series the paper reports alongside the paper's reference values, and
saves the text under ``benchmarks/results/`` for EXPERIMENTS.md.

Scaling: the paper uses b = 1000 batches, 64-node open-loop runs with long
steady-state windows, and multi-day GEMS simulations.  The harness defaults
below shrink batch sizes, measurement windows and instruction counts so the
whole suite finishes in tens of minutes of pure Python; every knob is a
module constant, so paper-scale reruns are one edit away.

Expensive execution-driven sweeps are shared across figures through
session-scoped fixtures (Fig. 14/15/18/19 all consume the same runs).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

import numpy as np
import pytest

from repro.config import CmpConfig, NetworkConfig
from repro.core.cache import ResultCache, cache_disabled, fingerprint
from repro.execdriven import (
    BENCHMARKS,
    TIMER_INTERVAL_3GHZ,
    TIMER_INTERVAL_75MHZ,
    CmpResult,
    CmpSystem,
    characterize,
)
from repro.execdriven.characterize import Characterization

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# --- scaled experiment sizes (paper-scale values in comments) ---------------
BATCH_SIZE = 150          # paper: b = 1000
OPENLOOP = dict(warmup=300, measure=600, drain_limit=3000)  # paper: >=10k cycle windows
EXEC_INSTRUCTIONS = 6000  # surrogate benchmarks; paper: full SPLASH-2/PARSEC
EXEC_INSTRUCTIONS_75MHZ = 4000
M_VALUES = (1, 2, 4, 8, 16, 32)
TR_VALUES = (1, 2, 4, 8)


def emit(name: str, text: str) -> None:
    """Print a figure's output and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_collection_modifyitems(items):
    """Every figure/table harness is a multi-second simulation: mark them all
    ``slow`` so ``pytest -m "not slow"`` gives the quick tier-1 loop even when
    benchmarks/ is on the command line."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def cmp_config(tr: int) -> CmpConfig:
    """Table II CMP configuration at router delay ``tr``."""
    return CmpConfig(
        network=NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, router_delay=tr)
    )


# --- content-addressed result cache (repro.core.cache) ----------------------
#
# The execution-driven session fixtures dominate the suite's wall time and
# are pure functions of (benchmark, tr, instructions, timer, seed) plus the
# simulation source — exactly what the cache fingerprints.  A warm cache
# turns the whole figure pipeline into replay; the code-version salt
# invalidates every entry the moment simulation-relevant source changes.

_NDARRAY_FIELDS = ("timeline", "traffic_matrix", "logical_matrix")


def _encode_cmp_result(res: CmpResult) -> dict:
    rec = dataclasses.asdict(res)
    for name in _NDARRAY_FIELDS:
        arr = rec[name]
        rec[name] = {"data": arr.tolist(), "dtype": str(arr.dtype)}
    rec.pop("probe_records")  # always empty here; lists don't round-trip JSON-checked
    return rec


def _decode_cmp_result(rec: dict) -> CmpResult:
    rec = dict(rec)
    for name in _NDARRAY_FIELDS:
        spec = rec[name]
        rec[name] = np.array(spec["data"], dtype=spec["dtype"])
    rec["flits_by_class"] = {int(k): v for k, v in rec["flits_by_class"].items()}
    rec["l2_miss_by_class"] = {int(k): v for k, v in rec["l2_miss_by_class"].items()}
    return CmpResult(probe_records=[], **rec)


@pytest.fixture(scope="session")
def figure_cache():
    """Session result cache for the figure pipeline (None when disabled).

    Lives under ``$REPRO_CACHE_DIR`` (CI restores it keyed on the code
    fingerprint) or ``benchmarks/.cache`` locally; ``REPRO_NO_CACHE=1``
    turns it off entirely.  Hit/miss counters flush to ``stats.json`` at
    session end so ``repro cache stats`` reports them.
    """
    if cache_disabled():
        yield None
        return
    root = os.environ.get("REPRO_CACHE_DIR") or str(pathlib.Path(__file__).parent / ".cache")
    cache = ResultCache(root)
    yield cache
    cache.flush_stats()


def _memoized(cache, context: str, params: dict, compute, encode, decode):
    """Content-addressed memoization of one deterministic computation."""
    if cache is None:
        return compute()
    key = fingerprint({"context": context, "params": params})
    hit = cache.get(key)
    if hit is not None:
        return decode(hit)
    value = compute()
    cache.put(key, encode(value), {"context": context, "params": params})
    return value


def _exec_results(cache, context: str, instructions: int, timer_interval: int) -> dict:
    out = {}
    for name, factory in BENCHMARKS.items():
        for tr in TR_VALUES:
            out[name, tr] = _memoized(
                cache,
                context,
                {
                    "benchmark": name,
                    "tr": tr,
                    "instructions": instructions,
                    "timer_interval": timer_interval,
                    "seed": 2,
                },
                lambda: CmpSystem(
                    factory(instructions),
                    cmp_config(tr),
                    timer_interval=timer_interval,
                    seed=2,
                ).run(),
                _encode_cmp_result,
                _decode_cmp_result,
            )
    return out


@pytest.fixture(scope="session")
def exec_results_3ghz(figure_cache):
    """CmpResult per (benchmark, tr) at the 3 GHz timer configuration."""
    return _exec_results(
        figure_cache, "benchmarks.exec_results_3ghz", EXEC_INSTRUCTIONS, TIMER_INTERVAL_3GHZ
    )


@pytest.fixture(scope="session")
def exec_results_75mhz(figure_cache):
    """CmpResult per (benchmark, tr) at the 75 MHz (Simics default) timer."""
    return _exec_results(
        figure_cache,
        "benchmarks.exec_results_75mhz",
        EXEC_INSTRUCTIONS_75MHZ,
        TIMER_INTERVAL_75MHZ,
    )


@pytest.fixture(scope="session")
def characterizations(figure_cache):
    """Timer-free ideal-network characterization per benchmark.

    Running without the timer keeps the Table III/IV NAR and miss-rate
    columns clean; the Rtimer column comes from the timed 75 MHz exec runs
    (``exec_results_75mhz``), and the OS-extended batch model receives its
    timer rate explicitly via ``derive_batch_params(..., timer_rate=...)``.
    """
    return {
        name: _memoized(
            figure_cache,
            "benchmarks.characterizations",
            {"benchmark": name, "instructions": EXEC_INSTRUCTIONS, "seed": 2},
            lambda: characterize(factory(EXEC_INSTRUCTIONS), seed=2),
            dataclasses.asdict,
            lambda rec: Characterization(**rec),
        )
        for name, factory in BENCHMARKS.items()
    }
