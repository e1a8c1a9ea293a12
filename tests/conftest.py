"""Shared fixtures: small, fast configurations used across the suite."""

from __future__ import annotations

import pytest

from repro.config import CmpConfig, NetworkConfig


@pytest.fixture
def mesh4() -> NetworkConfig:
    """4x4 mesh baseline — small enough for fast cycle-level tests."""
    return NetworkConfig(k=4, n=2)


@pytest.fixture
def mesh8() -> NetworkConfig:
    """The paper's 8x8 baseline."""
    return NetworkConfig(k=8, n=2)


@pytest.fixture
def torus4() -> NetworkConfig:
    return NetworkConfig(topology="torus", k=4, n=2)


@pytest.fixture
def ring16() -> NetworkConfig:
    return NetworkConfig(topology="ring", k=4, n=2)


@pytest.fixture
def cmp_small() -> CmpConfig:
    """16-core CMP with small caches so miss behaviour shows up quickly."""
    return CmpConfig(l1_lines=64, l1_assoc=4, l2_lines_per_tile=256, l2_assoc=8)


# ---------------------------------------------------------------------------
# A network that deadlocks: the watchdog's test case
# ---------------------------------------------------------------------------
@pytest.fixture
def deadlocking_network():
    """``cfg -> Network`` for a ring config, routed by DOR that offers
    every VC on every hop; a drop-in ``network_factory`` / ``build_network``.

    Without the dateline's VC classes the ring's wrap edge closes a
    channel-dependency cycle, so a loaded ring with 1-flit buffers
    deadlocks (no configuration the simulator builds itself does).
    """
    from repro.network.network import Network
    from repro.routing.base import RouteCandidate
    from repro.routing.dor import DOR
    from repro.topology.registry import build_topology

    class NoDatelineDOR(DOR):
        def __init__(self, topology, num_vcs: int):
            super().__init__(topology, num_vcs)
            self.static_rows = False

        def route(self, node, packet):
            cands = super().route(node, packet)
            return [RouteCandidate(c.out_port, self.all_vcs) for c in cands]

    def build(cfg: NetworkConfig) -> Network:
        topo = build_topology(cfg)
        return Network(cfg, topology=topo, routing=NoDatelineDOR(topo, cfg.num_vcs))

    return build


# ---------------------------------------------------------------------------
# Time budget of the quick tier
# ---------------------------------------------------------------------------
#: Longest call phase (s) a test not marked ``slow`` may take; the slowest
#: one takes about 3 s on a 2-core machine.
QUICK_TEST_BUDGET_S = 10.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing quick-tier test whose call phase overran the budget."""
    report = (yield).get_result()
    if (
        report.when == "call"
        and report.passed
        and report.duration > QUICK_TEST_BUDGET_S
        and item.get_closest_marker("slow") is None
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {report.duration:.2f} s, over the "
            f"{QUICK_TEST_BUDGET_S:g} s budget of tests not marked slow"
        )
