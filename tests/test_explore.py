"""Tests for the NSGA-II design-space explorer (repro.core.explore).

Three layers:

* property-based tests over the pure NSGA-II functions (non-dominated
  sort, crowding, selection, seeded reproducibility of the evolution
  loop) — no simulation involved;
* unit tests for the design-space validation, genome canonicalization,
  the cost proxy, and the Pareto/hypervolume geometry;
* integration tests driving :func:`repro.core.explore.explore` on a tiny
  space: bit-identical fronts across same-seed runs (cold vs warm cache),
  penalty points for infeasible genomes, resume from a result cache cut
  by a simulated interrupt, and ``run_sweep``'s cache-accounting
  invariant (journal-resumed work is never re-counted as a cache hit).
"""

from __future__ import annotations

import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io import read_jsonl
from repro.analysis.pareto import dominates, hypervolume, pareto_front, pareto_plot
from repro.config import NetworkConfig
from repro.core.explore import (
    QUICK_HV_REFERENCE,
    DesignSpace,
    ExploreSpec,
    crowding_distances,
    design_cost,
    explore,
    explore_runner,
    genome_key,
    init_population,
    make_offspring,
    non_dominated_sort,
    nsga2_select,
)
from repro.core.parallel import run_sweep
from repro.rng import make_generator

# ---------------------------------------------------------------------------
# Pure geometry: dominance, front, hypervolume
# ---------------------------------------------------------------------------


def test_dominates_basics():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 1), (1, 1))
    assert not dominates((1, 3), (3, 1))
    assert not dominates((math.inf, 0), (1, 1))
    assert dominates((1, 1), (math.inf, 1))
    with pytest.raises(ValueError):
        dominates((1,), (1, 2))


def test_pareto_front_keeps_nondominated():
    pts = [(1, 1), (2, 2), (0, 3), (3, 0), (1.5, 1.5)]
    assert pareto_front(pts) == [0, 2, 3]
    # duplicates are all kept
    assert pareto_front([(1, 1), (1, 1)]) == [0, 1]


def test_hypervolume_known_boxes():
    assert hypervolume([(0, 0)], (1, 1)) == pytest.approx(1.0)
    assert hypervolume([(0, 0), (0.5, 0.5)], (1, 1)) == pytest.approx(1.0)
    # two staircase steps: 1x0.5 + 0.5x0.5
    assert hypervolume([(0, 0.5), (0.5, 0)], (1, 1)) == pytest.approx(0.75)
    assert hypervolume([(0, 0, 0)], (1, 2, 3)) == pytest.approx(6.0)
    # points at/beyond the reference (and non-finite ones) contribute 0
    assert hypervolume([(1, 1), (math.inf, 0)], (1, 1)) == 0.0
    with pytest.raises(ValueError):
        hypervolume([(0, 0, 0, 0)], (1, 1, 1, 1))


def test_hypervolume_3d_matches_decomposition():
    # Two non-dominated points; inclusion-exclusion by hand.
    pts = [(0, 1, 0), (1, 0, 1)]
    ref = (2.0, 2.0, 2.0)
    # z in [0,1): only (0,1,0) active: area (2-0)*(2-1)=2 -> vol 2
    # z in [1,2): both active: staircase area = 2*1 + 1*(2-... ) compute:
    # points (0,1),(1,0) vs ref (2,2): area = (2-0)*(2-1) + (2-1)*(1-0) = 3
    assert hypervolume(pts, ref) == pytest.approx(2 * 1 + 3 * 1)


def test_pareto_plot_renders_series():
    front = [
        {"cost": 1.0, "latency": 5.0, "topology": "mesh"},
        {"cost": 2.0, "latency": 4.0, "topology": "torus"},
    ]
    fig = pareto_plot(front)
    assert "mesh" in fig and "torus" in fig and "cost" in fig
    assert "(no plottable points)" in pareto_plot([])


# ---------------------------------------------------------------------------
# Property-based NSGA-II core
# ---------------------------------------------------------------------------

objective_vectors = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=24,
)


@given(objective_vectors)
@settings(max_examples=60, deadline=None)
def test_front0_never_contains_dominated(objs):
    fronts = non_dominated_sort(objs)
    front0 = set(fronts[0])
    # front 0 is exactly the Pareto front of the input
    assert front0 == set(pareto_front(objs))
    for i in front0:
        assert not any(dominates(objs[j], objs[i]) for j in range(len(objs)))
    # every index lands in exactly one front
    flat = [i for front in fronts for i in front]
    assert sorted(flat) == list(range(len(objs)))


@given(objective_vectors)
@settings(max_examples=60, deadline=None)
def test_crowding_boundary_points_always_kept(objs):
    fronts = non_dominated_sort(objs)
    for front in fronts:
        dist = crowding_distances(objs, front)
        for k in range(3):
            by_obj = sorted(range(len(front)), key=lambda i: objs[front[i]][k])
            assert dist[by_obj[0]] == math.inf
            assert dist[by_obj[-1]] == math.inf
    # selection fills with whole fronts first, then by crowding: anything
    # selected from the overflow front has crowding >= anything rejected.
    k = max(1, len(objs) // 2)
    chosen = nsga2_select(objs, k)
    assert len(chosen) == min(k, len(objs))
    assert len(set(chosen)) == len(chosen)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_identical_seeds_identical_populations(seed):
    """The whole evolution loop is a pure function of the seed."""
    space = DesignSpace.from_mapping(
        {"num_vcs": (2, 4, 8), "topology": ("mesh", "torus"), "vc_buffer_size": (1, 2)}
    )

    def synthetic_objectives(genome):
        # Cheap, deterministic, conflicting objectives.
        vcs = dict(zip(space.names, genome))["num_vcs"]
        q = dict(zip(space.names, genome))["vc_buffer_size"]
        return (100.0 / (vcs * q), float(vcs * q), float(hash(genome) % 97))

    def evolve():
        gen = make_generator(seed, "explore")
        pop = init_population(gen, space, 8)
        history = [list(pop)]
        for _ in range(4):
            objs = [synthetic_objectives(g) for g in pop]
            kids = make_offspring(gen, pop, objs, space, 8)
            union = pop + kids
            union_objs = [synthetic_objectives(g) for g in union]
            pop = [union[i] for i in nsga2_select(union_objs, 8)]
            history.append(list(pop))
        return history

    assert evolve() == evolve()


# ---------------------------------------------------------------------------
# Design space, genomes, cost proxy
# ---------------------------------------------------------------------------


def test_design_space_validation():
    with pytest.raises(ValueError, match="unknown config field"):
        DesignSpace.from_mapping({"bogus": (1, 2)})
    with pytest.raises(ValueError, match="reserved"):
        DesignSpace.from_mapping({"seed": (1, 2)})
    with pytest.raises(ValueError, match="no candidate values"):
        DesignSpace.from_mapping({"num_vcs": ()})
    with pytest.raises(ValueError, match="repeats"):
        DesignSpace.from_mapping({"num_vcs": (2, 2)})
    with pytest.raises(ValueError, match="not in"):
        DesignSpace.from_mapping({"topology": ("mesh", "hypercube")})
    with pytest.raises(ValueError, match="'vc_buffer_size' value 2.5 is not an integer"):
        DesignSpace.from_mapping({"vc_buffer_size": (2, 2.5)})
    space = DesignSpace.from_mapping({"topology": ("mesh",), "num_vcs": (2, 4)})
    assert space.names == ("num_vcs", "topology")  # sorted
    assert space.size == 2


def test_genome_key_is_order_canonical():
    space = DesignSpace.from_mapping({"num_vcs": (2, 4), "topology": ("mesh", "torus")})
    assert genome_key(space, (2, "mesh")) == "num_vcs=2|topology='mesh'"


def test_design_cost_orders_topologies():
    base = NetworkConfig(k=4, n=2, num_vcs=2)
    mesh = design_cost(base)
    torus = design_cost(base.with_(topology="torus"))
    ring = design_cost(base.with_(topology="ring"))
    # Torus pays wrap wire + extra channels; ring is the cheapest fabric.
    assert ring < mesh < torus
    # More buffering costs more silicon.
    assert design_cost(base.with_(vc_buffer_size=8)) > mesh
    assert design_cost(base.with_(num_vcs=4)) > mesh


def test_explore_spec_validation():
    with pytest.raises(ValueError, match="population"):
        ExploreSpec(population=1)
    with pytest.raises(ValueError, match="rates"):
        ExploreSpec(rates=(0.5, 0.1))
    with pytest.raises(ValueError, match="objectives"):
        ExploreSpec(objectives=("latency",))
    with pytest.raises(ValueError, match="objectives"):
        ExploreSpec(objectives=("latency", "power"))
    spec = ExploreSpec(objectives=("cost", "throughput"))
    # throughput is maximized: negated in the minimized vector
    assert spec.objective_vector({"cost": 3.0, "throughput": 0.5}) == (3.0, -0.5)


# ---------------------------------------------------------------------------
# Integration: the full driver on a tiny space
# ---------------------------------------------------------------------------

BASE = NetworkConfig(k=4, n=2)

TINY_SPACE = DesignSpace.from_mapping(
    {
        "topology": ("mesh", "torus"),
        "num_vcs": (2, 4),
        # val off-mesh raises at validation: exercises the penalty path
        "routing": ("dor", "val"),
    }
)

TINY_SPEC = ExploreSpec(
    space=TINY_SPACE,
    population=6,
    generations=2,
    seed=7,
    rates=(0.1, 0.5),
    warmup=100,
    measure=200,
    drain_limit=2000,
)


def _front_text(result):
    return "\n".join(json.dumps(r, sort_keys=True) for r in result.front)


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    """One cold explore run, shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("explore")
    res = explore(BASE, TINY_SPEC, cache=tmp / "cache")
    return tmp, res


def test_explore_front_and_penalties(explored):
    _, res = explored
    assert res.front, "tiny space must yield a non-empty front"
    # Front entries are feasible simulated designs with full metadata.
    for rec in res.front:
        assert set(TINY_SPACE.names) <= set(rec)
        assert math.isfinite(rec["cost"])
        assert rec["key"] and "generation" in rec
    # val+torus genomes were drawn and became penalty points, not crashes.
    assert res.infeasible > 0
    assert res.errors == 0
    penalties = [e for e in res.archive if e["source"] == "penalty"]
    assert penalties and all(not e["feasible"] for e in penalties)
    assert all(e["objectives"][0] == math.inf for e in penalties)
    # A penalty genome can never be on the front.
    front_keys = {r["key"] for r in res.front}
    assert front_keys.isdisjoint({e["key"] for e in penalties})


def test_explore_bit_identical_and_warm_cache(explored, tmp_path):
    tmp, res = explored
    res2 = explore(BASE, TINY_SPEC, cache=tmp / "cache")
    assert _front_text(res2) == _front_text(res)
    assert res2.populations == res.populations
    h = res2.health
    # Warm run: >= half the evaluation points answered from the cache
    # (failed/penalty points are never cached, so misses stay non-zero).
    assert h.cache_hits >= h.cache_misses
    assert h.cache_hits + h.cache_misses == h.total


def test_quick_profile_hypervolume_pinned():
    """`repro explore --quick` (seed 1) is a deterministic search: its front's
    hypervolume is pinned exactly, so a change that moves any simulated
    number on the quick space, or the search itself, shows here."""
    from repro.__main__ import _explore_spec, build_parser

    cfg, spec = _explore_spec(build_parser().parse_args(["explore", "--quick"]))
    res = explore(cfg, spec)
    hv = hypervolume([r["objectives"] for r in res.front], QUICK_HV_REFERENCE)
    assert hv == pytest.approx(516064.7425491101, rel=1e-9)


# The throughput point (rates[1]): only accepted throughput is read from it,
# so it ends when the measurement window closes.

FEASIBLE_SPACE = DesignSpace.from_mapping({"topology": ("mesh", "torus"), "num_vcs": (2, 4)})


def _small_spec(rates):
    return ExploreSpec(
        space=FEASIBLE_SPACE, population=3, generations=0, seed=3,
        rates=rates, warmup=50, measure=100, drain_limit=800,
    )


def test_throughput_point_record_has_throughput_only():
    point = dict(
        genome=(("num_vcs", 2), ("topology", "torus")),
        rate=0.5, warmup=50, measure=100, drain_limit=800,
    )
    full = explore_runner(BASE.with_(seed=11), **point)
    cut = explore_runner(BASE.with_(seed=11), throughput_rate=0.5, **point)
    assert set(full) == {"latency", "throughput", "saturated"}
    assert set(cut) == {"throughput"}  # no latency to misread
    assert cut["throughput"] == full["throughput"]
    # any other rate under the same binding is a full measurement
    assert explore_runner(BASE.with_(seed=11), throughput_rate=0.9, **point) == full


def test_equal_rates_keep_the_full_drain():
    """rates=(r, r): a point's role cannot be told from its rate."""
    res = explore(BASE, _small_spec((0.1, 0.1)))
    assert res.evaluated > 0 and res.errors == 0
    for entry in res.archive:
        assert math.isfinite(entry["metrics"]["latency"])
        assert entry["metrics"]["throughput"] > 0.0


def test_throughput_point_never_answers_for_a_latency_point(tmp_path):
    """Two explores share a cache; the first's throughput rate is the
    second's latency rate.  The throughput-only records must all miss."""
    explore(BASE, _small_spec((0.1, 0.55)), cache=tmp_path)
    shared = explore(BASE, _small_spec((0.55, 0.9)), cache=tmp_path)
    alone = explore(BASE, _small_spec((0.55, 0.9)))
    assert shared.health.cache_hits == 0 and shared.health.cache_misses == shared.health.total
    assert shared.archive == alone.archive
    assert any(math.isfinite(e["metrics"]["latency"]) for e in shared.archive)


def _archive_objectives(result):
    return [(e["key"], e["objectives"]) for e in result.archive]


def test_explore_resumes_from_a_truncated_cache(explored, tmp_path):
    """A killed run resumes by running again against its cache: the points
    that reached the store are hits, the rest re-run on the same seeds."""
    tmp, res = explored
    cache = tmp_path / "cache"
    shutil.copytree(tmp / "cache", cache)
    store = cache / "store.jsonl"
    lines = store.read_text().splitlines()
    cut = len(lines) // 2
    # Half the lines and a half-written one: a mid-append crash.
    store.write_text("\n".join(lines[:cut]) + "\n" + lines[cut][:15])
    res3 = explore(BASE, TINY_SPEC, cache=cache)
    assert _front_text(res3) == _front_text(res)
    assert res3.populations == res.populations
    assert _archive_objectives(res3) == _archive_objectives(res)
    assert res3.health.cache_hits > 0
    keys = [e["key"] for e in read_jsonl(store)]
    assert len(keys) == len(set(keys))


def test_warm_summary_does_not_claim_simulation(explored):
    """Every feasible point of a warm run is a replay, so the summary counts
    it as evaluated, never as simulated."""
    tmp, _ = explored
    warm = explore(BASE, TINY_SPEC, cache=tmp / "cache")
    h = warm.health
    assert warm.evaluated > 0 and h.cache_hits == h.ok
    assert "simulated" not in warm.summary()
    assert f"{warm.evaluated} evaluated" in warm.summary()


def test_explore_remote_matches_local(explored):
    """Evaluation through the sweep service gives the same front.

    ``fallback_after`` makes the workerless controller execute the points
    itself, which still exercises the whole remote path: client-side
    enumeration and seed derivation, the wire protocol, and the
    controller's emit/health bookkeeping.
    """
    from repro.service import Controller, ControllerServer, ServiceOptions

    _, local = explored
    with ControllerServer(Controller(ServiceOptions(fallback_after=0.1))) as server:
        host, port = server.address
        remote = explore(BASE, TINY_SPEC, remote=f"{host}:{port}")
    assert _front_text(remote) == _front_text(local)
    assert remote.populations == local.populations
    assert remote.errors == 0 and remote.infeasible == local.infeasible


# ---------------------------------------------------------------------------
# run_sweep accounting regression (shared by sweep and explore)
# ---------------------------------------------------------------------------


def _counting_runner(cfg, **kwargs):
    gen = make_generator(cfg.seed, "point")
    return {"value": cfg.router_delay + kwargs.get("rate", 0.0), "draw": float(gen.random())}


def test_run_sweep_resumed_points_never_counted_as_cache_hits(tmp_path):
    """A journal-resumed point that is also in the cache is counted once.

    Before the hardening, ``emit`` had no double-emission guard and the
    resumed-entry tally ran *after* the cache replay — correct only as
    long as ``pending`` filtered resumed indices first.  This pins the
    invariant directly: resume half a journal against a fully warm cache
    and check every counter.
    """
    axes = {"router_delay": (1, 2)}
    extra = {"rate": (0.1, 0.2)}
    journal = tmp_path / "j.jsonl"
    cache = tmp_path / "cache"
    run_sweep(BASE, axes, _counting_runner, extra_axes=extra, journal=journal, cache=cache)

    # Truncate the journal to half its points; the cache stays fully warm.
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:3]) + "\n")  # header + 2 of 4 points

    records = run_sweep(
        BASE, axes, _counting_runner, extra_axes=extra,
        journal=journal, resume=True, cache=cache,
    )
    h = records.health
    assert (h.ok, h.failed, h.total) == (4, 0, 4)
    # Only the two non-resumed points touch the cache — both hits.
    assert (h.cache_hits, h.cache_misses) == (2, 0)
    # The journal holds each index exactly once after the resume.
    indices = [e["index"] for e in read_jsonl(journal) if "index" in e]
    assert sorted(indices) == [0, 1, 2, 3]

    # Fully-resumed run: nothing pending, so the cache is never consulted.
    records2 = run_sweep(
        BASE, axes, _counting_runner, extra_axes=extra,
        journal=journal, resume=True, cache=cache,
    )
    h2 = records2.health
    assert (h2.ok, h2.total, h2.cache_hits, h2.cache_misses) == (4, 4, 0, 0)
