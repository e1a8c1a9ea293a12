"""Differential equivalence harness: object vs vectorized backend.

The vectorized backend's contract (DESIGN.md "Vectorized backend") is that
every configuration it accepts produces records *bit-identical* to the
object backend's — not statistically close, identical.  This suite enforces
the contract property-style: randomized configurations drawn with stdlib
``random`` from the full supported space (topology x routing x arbitration
— the class-aware priority/weighted family included — x traffic classes
x VC count x buffer depth x traffic x load x seed), both backends run on
each, and the full record — every per-packet latency and class id included
— compared for equality.  The generator is seeded, so a failure is reproducible; on
mismatch the harness greedily shrinks the config toward the simplest one
that still fails and reports it, which is what you paste into a repro.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.config import NetworkConfig
from repro.core.closedloop import BatchSimulator
from repro.core.openloop import OpenLoopSimulator
from repro.network.factory import NETWORK_BACKENDS, build_network

# ---------------------------------------------------------------------------
# record extraction
# ---------------------------------------------------------------------------

_WINDOWS = dict(warmup=40, measure=80, drain_limit=200)


def openloop_record(cfg: NetworkConfig, rate: float) -> dict:
    """JSON-native figures of merit, strong enough to detect any drift."""
    res = OpenLoopSimulator(cfg, **_WINDOWS).run(rate)
    return {
        "avg_latency": res.avg_latency,
        "worst_node_latency": res.worst_node_latency,
        "throughput": res.throughput,
        "avg_hops": res.avg_hops,
        "saturated": res.saturated,
        "num_measured": res.num_measured,
        "latencies": res.latencies.tolist(),
        "class_ids": res.class_ids.tolist(),
        "per_class_throughput": res.per_class_throughput.tolist(),
        "per_node": [
            None if math.isnan(x) else x for x in res.per_node_latency.tolist()
        ],
    }


# ---------------------------------------------------------------------------
# randomized config generator + shrinker
# ---------------------------------------------------------------------------

_BIT_PATTERNS = ("bit_reversal", "bit_complement", "transpose")


def draw_config(rng: random.Random) -> tuple[dict, float]:
    """One random supported configuration and an offered load for it."""
    topology = rng.choice(("mesh", "mesh", "torus", "ring"))
    routing = (
        rng.choice(("dor", "dor", "val", "ma", "romm"))
        if topology == "mesh"
        else "dor"
    )
    k = rng.choice((3, 4))
    # bit patterns need a power-of-two node count, transpose a square one:
    # k=4, n=2 (16 nodes) satisfies both.
    traffic = rng.choice(
        ("uniform_random", "uniform_random", "neighbor", "tornado") + _BIT_PATTERNS
    )
    if traffic in _BIT_PATTERNS and k != 4:
        traffic = "uniform_random"
    kw = dict(
        topology=topology,
        k=k,
        n=2,
        num_vcs=rng.choice((2, 3, 4)),
        vc_buffer_size=rng.choice((1, 2, 4)),
        router_delay=rng.choice((1, 1, 2)),
        routing=routing,
        arbitration=rng.choice(("round_robin", "age", "priority", "weighted")),
        link_delay=rng.choice((1, 1, 2)),
        packet_size=rng.choice(("single", "bimodal")),
        traffic=traffic,
        classes=rng.choice(
            (
                None,  # default single class
                None,
                "user+os:priority=1",
                "user:share=3:weight=3+os:priority=1",
                "a:weight=1+b:weight=2:priority=1+c:weight=4:priority=2",
            )
        ),
        dateline=(
            rng.choice(("balanced", "strict"))
            if topology in ("torus", "ring")
            else "balanced"
        ),
        seed=rng.randrange(1, 100_000),
    )
    return kw, rng.choice((0.05, 0.15, 0.30, 0.50))


#: simplest value per field, the shrink targets (tried in this order)
_SHRINK = {
    "topology": "mesh",
    "routing": "dor",
    "traffic": "uniform_random",
    "packet_size": "single",
    "classes": None,
    "arbitration": "round_robin",
    "dateline": "balanced",
    "router_delay": 1,
    "link_delay": 1,
    "num_vcs": 2,
    "vc_buffer_size": 1,
    "k": 3,
}


def _mismatch(kw: dict, rate: float) -> bool:
    """True when the two backends disagree on this config (or it's invalid
    in a way only one backend surfaces — also a contract violation)."""
    try:
        obj = openloop_record(NetworkConfig(backend="object", **kw), rate)
        vec = openloop_record(NetworkConfig(backend="vectorized", **kw), rate)
    except ValueError:
        return False  # invalid config: rejected identically upstream
    return obj != vec


def shrink(kw: dict, rate: float) -> dict:
    """Greedily simplify a failing config while it keeps failing."""
    changed = True
    while changed:
        changed = False
        for field, simple in _SHRINK.items():
            if kw[field] == simple:
                continue
            trial = {**kw, field: simple}
            if _mismatch(trial, rate):
                kw = trial
                changed = True
    return kw


def run_differential(master_seed: int, count: int) -> None:
    rng = random.Random(master_seed)
    for i in range(count):
        kw, rate = draw_config(rng)
        obj = openloop_record(NetworkConfig(backend="object", **kw), rate)
        vec = openloop_record(NetworkConfig(backend="vectorized", **kw), rate)
        if obj != vec:
            minimal = shrink(dict(kw), rate)
            pytest.fail(
                f"backends diverged on config #{i} (master_seed={master_seed});"
                f" shrunk repro: NetworkConfig(**{minimal!r}) at rate {rate}"
            )


# ---------------------------------------------------------------------------
# the differential property suite
# ---------------------------------------------------------------------------


class TestRandomizedEquivalence:
    def test_quick_sample(self):
        """Tier-1 smoke: a couple dozen randomized configs."""
        run_differential(master_seed=20260808, count=24)

    @pytest.mark.slow
    def test_full_sweep_200_configs(self):
        """The acceptance sweep: 200 randomized configs, both backends."""
        run_differential(master_seed=987654321, count=200)

    def test_batch_driver_equivalence(self):
        """Closed-loop driver: same runtime and per-node finish times."""
        for kw in (
            dict(k=4, n=2, seed=7),
            dict(topology="torus", k=4, n=2, num_vcs=4, seed=3),
            dict(
                k=4,
                n=2,
                arbitration="priority",
                classes="user+os:priority=1",
                seed=5,
            ),
        ):
            results = {}
            for backend in NETWORK_BACKENDS:
                cfg = NetworkConfig(backend=backend, **kw)
                res = BatchSimulator(cfg, batch_size=30, max_outstanding=2).run()
                results[backend] = (
                    res.runtime,
                    res.throughput,
                    res.total_requests,
                    res.avg_request_latency,
                    res.node_finish.tolist(),
                )
            assert results["object"] == results["vectorized"], kw

    @pytest.mark.slow
    def test_cmp_driver_equivalence(self):
        """Execution-driven CMP: the network backend must not change a
        single cycle of the full-system run."""
        from repro.config import CmpConfig
        from repro.execdriven import BENCHMARKS, CmpSystem

        outs = {}
        for backend in NETWORK_BACKENDS:
            spec = BENCHMARKS["blackscholes"](1500)
            cmp_cfg = CmpConfig(
                network=NetworkConfig(
                    k=4, n=2, num_vcs=8, vc_buffer_size=4, backend=backend
                )
            )
            res = CmpSystem(spec, cmp_cfg, timer_interval=10000, seed=3).run()
            outs[backend] = (
                res.cycles,
                res.total_flits,
                res.requests,
                res.traffic_matrix.tobytes(),
                res.timeline.tobytes(),
            )
        assert outs["object"] == outs["vectorized"]


# ---------------------------------------------------------------------------
# construction contract
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_factory_dispatch(self):
        from repro.network.network import Network
        from repro.network.vectorized import VectorizedNetwork

        assert isinstance(build_network(NetworkConfig()), Network)
        assert isinstance(
            build_network(NetworkConfig(backend="vectorized")), VectorizedNetwork
        )

    def test_vectorized_supports_mirrors_constructor(self):
        from repro.network.factory import vectorized_supports

        assert vectorized_supports(NetworkConfig())
        assert not vectorized_supports(NetworkConfig(credit_delay=0))
        for kw in (dict(), dict(credit_delay=0)):
            cfg = NetworkConfig(backend="vectorized", **kw)
            if vectorized_supports(cfg):
                build_network(cfg)  # must not raise
            else:
                with pytest.raises((ValueError, TypeError)):
                    build_network(cfg)

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="backend"):
            NetworkConfig(backend="warp-drive")

    def test_vectorized_rejects_unsupported(self):
        # zero-delay credits run on the reference backend only
        with pytest.raises(ValueError, match="credit_delay"):
            build_network(NetworkConfig(backend="vectorized", credit_delay=0))

    def test_vectorized_rejects_overrides(self):
        with pytest.raises(TypeError, match="overrides"):
            build_network(NetworkConfig(backend="vectorized"), topology=object())
