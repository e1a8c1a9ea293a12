"""A finished run leaves no cyclic garbage behind.

Each simulation path builds a network (and, for the CMP, cores, caches and
tiles), runs it, and drops it.  No component may hold a reference back to
its owner, so the whole per-run object graph is freed by reference counting
the moment the run's last reference goes — not at CPython's next
generation-2 collection, which is what sets peak RSS otherwise.  The gate:
with the collector off, run a path while keeping its result, then collect
with ``DEBUG_SAVEALL`` and require that nothing was unreachable.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.config import CmpConfig, NetworkConfig
from repro.core.barrier import BarrierSimulator
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.core.probes import ProbeSet, build_probes
from repro.core.resilience import InvariantChecker, Watchdog
from repro.core.tracedriven import TraceDrivenSimulator, capture_openloop_trace
from repro.execdriven import BENCHMARKS, CmpSystem


def _config(backend: str, **kw) -> NetworkConfig:
    return NetworkConfig(k=4, n=2, seed=3, backend=backend, **kw)


def _openloop(backend, rate=0.2, sim_kw=None, **cfg_kw):
    sim = OpenLoopSimulator(
        _config(backend, **cfg_kw), warmup=50, measure=100, drain_limit=2000,
        **(sim_kw or {}),
    )
    return sim.run(rate)


def _batch(backend):
    return BatchSimulator(_config(backend), batch_size=10, max_outstanding=4).run()


def _barrier(backend):
    return BarrierSimulator(_config(backend), batch_size=5, rounds=2).run()


def _trace(backend):
    trace = capture_openloop_trace(_config("object"), 0.1, cycles=200)
    return TraceDrivenSimulator(_config(backend), trace).run()


def _cmp(backend, *, ideal=False, timer_interval=0):
    config = CmpConfig(
        network=NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, backend=backend)
    )
    system = CmpSystem(
        BENCHMARKS["lu"](300), config, ideal=ideal, timer_interval=timer_interval
    )
    return system.run()


def _probes(backend):
    probes = ProbeSet(build_probes("all"), interval=50)
    return _openloop(backend, sim_kw=dict(observers=(probes,)))


def _checks(backend):
    return _openloop(
        backend, sim_kw=dict(observers=(Watchdog(window=500), InvariantChecker()))
    )


#: path -> (runner, runs on the vectorized backend too)
PATHS = {
    "openloop": (_openloop, True),
    "batch": (_batch, True),
    "barrier": (_barrier, True),
    "trace_capture_replay": (_trace, True),
    "cmp_mesh": (_cmp, True),
    "cmp_ideal": (lambda b: _cmp(b, ideal=True), False),
    "cmp_timer_firing": (lambda b: _cmp(b, timer_interval=200), False),
    "routing_val": (lambda b: _openloop(b, routing="val"), True),
    "routing_ma": (lambda b: _openloop(b, routing="ma"), True),
    "probes": (_probes, True),
    "watchdog_invariants": (_checks, True),
}

CASES = [
    pytest.param(name, backend, id=f"{name}-{backend}")
    for name, (_, vectorized) in PATHS.items()
    for backend in (("object", "vectorized") if vectorized else ("object",))
]


def _cyclic_garbage(run) -> list:
    """Objects ``run()`` left unreachable-but-uncollected (its result kept)."""
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    assert result is not None
    return garbage


@pytest.mark.parametrize("name,backend", CASES)
def test_run_leaves_no_cyclic_garbage(name, backend):
    runner, _ = PATHS[name]
    # The first run of a path may import modules lazily, and class objects
    # are cyclic by nature; only what a repeated run leaves counts.
    runner(backend)
    garbage = _cyclic_garbage(lambda: runner(backend))
    census = Counter(type(obj).__name__ for obj in garbage).most_common(8)
    assert garbage == [], f"{len(garbage)} objects in reference cycles: {census}"
