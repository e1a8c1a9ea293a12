"""The figure suite's point declarations (``benchmarks/exhibits.py``).

Nothing here simulates: it checks the data the figure sweep runs from.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.config import NetworkConfig
from repro.core.cache import _import_runner, point_key

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def exhibits():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS_DIR))
        import exhibits

        yield exhibits


@pytest.fixture(scope="module")
def declared(exhibits):
    """Every first-pass point of every exhibit (derived points' sources too)."""
    points = []
    for plan in exhibits.EXHIBITS.values():
        for leaf in exhibits._leaves(plan):
            points.extend(leaf.sources if isinstance(leaf, exhibits.Derived) else [leaf])
    return points


def test_every_harness_with_points_is_declared(exhibits):
    for path in BENCHMARKS_DIR.glob("test_*.py"):
        for line in path.read_text().splitlines():
            if line.startswith("def test_") and "(exhibit)" in line:
                assert line[len("def test_"):].split("(")[0] in exhibits.EXHIBITS


def test_distinct_points_have_distinct_keys(exhibits, declared):
    unique = exhibits.distinct(declared)
    assert len(unique) < len(declared)
    # the key the ledger derives from each point as it runs it (overrides of
    # NetworkConfig() plus the seed) is the point's own, and no two collide
    spec = exhibits.runner_spec(exhibits.run_point)
    keys = set()
    for index, point in enumerate(unique.values()):
        swept = point.sweep_point(index)
        cfg = NetworkConfig().with_(**swept.overrides, seed=swept.seed)
        assert cfg == point.config
        keys.add(point_key(exhibits.dataclasses.asdict(cfg), swept.kwargs, spec))
    assert keys == set(unique)


def test_shared_runs_are_one_point(exhibits):
    key, plans = exhibits.cache_key, exhibits.EXHIBITS
    fig04a = {key(p) for p in plans["fig04a_router_delay"].values()}
    fig05a = {key(r["batch"]) for r in plans["fig05a_router_delay_correlation"].values()}
    assert fig04a == fig05a
    ba = {key(p) for p in plans["fig14_execdriven_router_delay"]["BA"].values()}
    fig18 = plans["fig18_enhanced_models"]["batch"]
    assert {key(p) for (_, label, _), p in fig18.items() if label == "BA"} == ba


def test_every_point_carries_an_explicit_seed(declared):
    for point in declared:
        assert type(point.seed) is int and point.config.seed == point.seed


def test_runner_imports_by_its_cache_name(exhibits):
    spec = exhibits.runner_spec(exhibits.run_point)
    assert spec["runner"] == "exhibits:run_point"
    assert _import_runner(spec["runner"]) is exhibits.run_point
