"""Tests for knee detection and model-steered sweeps (repro.core.steering).

The steering layer's contract has two halves: :func:`find_knee` must put
the simulation budget where the curve bends (property-tested on synthetic
curve families), and :func:`steered_sweep` must produce simulated records
*bit-identical* to the dense sweep's — steering decides which points get
cycles, never what a simulated point contains.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng
from repro.__main__ import _openloop_runner
from repro.config import NetworkConfig
from repro.core.parallel import run_sweep
from repro.core.steering import _window, find_knee, steered_sweep

BASE = NetworkConfig(k=4, n=2)
RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def fake_runner(cfg, **kwargs):
    """Cheap deterministic stand-in with an M/M/1-shaped latency curve."""
    rate = kwargs["rate"]
    gen = rng.make_generator(cfg.seed, "steer-test")
    sat = 0.75 / cfg.router_delay
    if rate >= sat:
        latency, saturated = float("inf"), True
    else:
        latency, saturated = 5.0 + 1.0 / (sat - rate), False
    return {
        "latency": latency,
        "worst_node": latency * 1.5,
        "throughput": min(rate, sat),
        "saturated": saturated,
        "draw": float(gen.random()),
    }


# ---------------------------------------------------------------------------
# find_knee properties
# ---------------------------------------------------------------------------


class TestFindKnee:
    @given(
        n=st.integers(3, 40),
        slope=st.floats(0.1, 100.0),
        intercept=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_curves_knee_at_end(self, n, slope, intercept):
        xs = np.linspace(0.0, 1.0, n)
        ys = intercept + slope * xs
        assert find_knee(xs, ys) == n - 1

    @given(n=st.integers(3, 40), scale=st.floats(0.5, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_concave_monotone_curves_knee_at_end(self, n, scale):
        # diminishing-returns growth stays above the chord: no sag, no knee
        xs = np.linspace(0.0, 1.0, n)
        ys = scale * np.sqrt(xs)
        assert find_knee(xs, ys) == n - 1

    @given(n=st.integers(3, 30), value=st.floats(-10.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_constant_curves_knee_at_end(self, n, value):
        xs = np.linspace(0.0, 1.0, n)
        assert find_knee(xs, np.full(n, value)) == n - 1

    @given(
        n=st.integers(6, 50),
        data=st.data(),
        lo=st.floats(0.0, 5.0),
        jump=st.floats(10.0, 1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_curves_knee_at_step(self, n, data, lo, jump):
        # the flat prefix must be long enough that its sag clears the
        # no-knee tolerance: sag at the last flat point is (step-1)/(n-1)
        lo_step = max(2, math.ceil(0.05 * (n - 1)) + 1)
        step = data.draw(st.integers(lo_step, n - 2))
        xs = np.linspace(0.0, 1.0, n)
        ys = np.where(np.arange(n) < step, lo, lo + jump)
        knee = find_knee(xs, ys)
        # the maximum sag sits on the last flat point before the jump
        assert abs(knee - step) <= 1

    def test_elbow_curve_knee_at_bend(self):
        # flat ramp then steep climb: the knee is the corner
        xs = np.linspace(0.0, 1.0, 21)
        ys = np.where(xs <= 0.6, xs, 0.6 + 25.0 * (xs - 0.6))
        knee = find_knee(xs, ys)
        assert abs(xs[knee] - 0.6) <= 0.05 + 1e-9

    def test_saturated_tail_clipped_not_nan(self):
        # inf latencies (saturated points) register as a bend at the last
        # finite point, not a NaN result
        xs = np.linspace(0.1, 0.8, 8)
        ys = [10.0, 10.5, 11.0, 12.0, 15.0, math.inf, math.inf, math.inf]
        knee = find_knee(xs, ys)
        assert 3 <= knee <= 5

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            find_knee([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least one"):
            find_knee([], [])
        assert find_knee([1.0], [5.0]) == 0
        assert find_knee([1.0, 2.0], [5.0, 6.0]) == 1
        assert find_knee([0.5] * 5, list(range(5))) == 4  # zero x-range
        assert find_knee(list(range(5)), [math.inf] * 5) == 4


class TestWindow:
    @given(
        total=st.integers(1, 50),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_contiguous_in_bounds_and_covers_knee(self, total, data):
        knee = data.draw(st.integers(0, total - 1))
        budget = data.draw(st.integers(1, total))
        win = _window(knee, total, budget)
        assert len(win) == budget
        assert win == tuple(range(win[0], win[0] + budget))
        assert 0 <= win[0] and win[-1] < total
        # knee inside the window whenever the clamp allows it
        assert win[0] <= knee <= win[-1] or win[0] == 0 or win[-1] == total - 1


# ---------------------------------------------------------------------------
# steered_sweep machinery (fake runner: fast, deterministic)
# ---------------------------------------------------------------------------


def strip(rec):
    return {k: v for k, v in rec.items() if k not in ("wall_seconds", "source")}


def dumps(records):
    return json.dumps([strip(r) for r in records])


class TestSteeredSweep:
    def test_simulated_records_bit_identical_to_dense(self):
        axes = {"router_delay": (1, 2)}
        dense = run_sweep(BASE, axes, fake_runner, extra_axes={"rate": RATES})
        steered = steered_sweep(BASE, axes, fake_runner, rates=RATES)
        assert len(steered) == len(dense)
        dense_by_key = {
            (r["router_delay"], r["rate"]): r for r in dense
        }
        n_sim = 0
        for rec in steered:
            if rec["source"] == "simulated":
                n_sim += 1
                assert strip(rec) == strip(
                    dense_by_key[(rec["router_delay"], rec["rate"])]
                )
        # at most half the grid simulated, and only half per combination
        assert n_sim <= len(dense) // 2
        for plan in steered.plans:
            assert plan.simulated_fraction <= 0.5

    def test_budget_and_source_tags(self):
        steered = steered_sweep(
            BASE, {}, fake_runner, rates=RATES, sim_fraction=0.5
        )
        sources = [r["source"] for r in steered]
        assert sources.count("simulated") == 4  # int(8 * 0.5)
        assert sources.count("analytical") == 4
        (plan,) = steered.plans
        assert plan.simulated_indices == tuple(
            i for i, s in enumerate(sources) if s == "simulated"
        )
        # window is contiguous and contains the predicted knee
        assert plan.simulated_indices[0] <= plan.knee_index
        assert plan.knee_index <= plan.simulated_indices[-1]

    def test_min_simulated_floor(self):
        steered = steered_sweep(
            BASE, {}, fake_runner, rates=RATES, sim_fraction=0.01,
            min_simulated=2,
        )
        sources = [r["source"] for r in steered]
        assert sources.count("simulated") == 2

    def test_analytical_fill_shape(self):
        steered = steered_sweep(
            BASE, {"router_delay": (2,)}, fake_runner, rates=RATES
        )
        fills = [r for r in steered if r["source"] == "analytical"]
        assert fills
        for rec in fills:
            assert rec["router_delay"] == 2
            assert math.isnan(rec["worst_node"])
            assert rec["latency"] > 0 or math.isinf(rec["latency"])
            assert "wall_seconds" in rec
        # records come back in dense canonical order
        assert [r["rate"] for r in steered] == list(RATES)

    def test_health_counts_every_point(self):
        steered = steered_sweep(BASE, {"router_delay": (1, 2)}, fake_runner,
                                rates=RATES)
        assert steered.health.total == len(RATES) * 2
        assert steered.health.ok == len(RATES) * 2
        assert steered.health.failed == 0

    def test_journal_round_trip(self, tmp_path):
        journal = tmp_path / "steer.jsonl"
        steered = steered_sweep(
            BASE, {}, fake_runner, rates=RATES, journal=journal
        )
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        header, *points = lines
        assert header["sweep"]["steered"] is True
        assert header["sweep"]["total"] == len(RATES)
        assert header["sweep"]["sim_fraction"] == 0.5
        assert len(points) == len(steered)
        for entry, rec in zip(points, steered):
            assert entry["record"]["source"] == rec["source"]
            assert entry["point"]["rate"] == rec["rate"]

    def test_steered_then_dense_shares_one_cache(self, tmp_path):
        # The store receives untagged records: a later dense sweep hits
        # every point the steered one simulated and equals a cold dense run
        # byte for byte — no ``source`` key leaks into the cache.
        axes = {"router_delay": (1, 2)}
        cache = tmp_path / "cache"
        steered = steered_sweep(BASE, axes, fake_runner, rates=RATES, cache=cache)
        n_sim = sum(r["source"] == "simulated" for r in steered)
        assert (steered.health.cache_hits, steered.health.cache_misses) == (0, n_sim)
        dense = run_sweep(BASE, axes, fake_runner, extra_axes={"rate": RATES}, cache=cache)
        assert dense.health.cache_hits == n_sim
        assert dense.health.cache_misses == len(dense) - n_sim
        cold = run_sweep(BASE, axes, fake_runner, extra_axes={"rate": RATES})
        assert dumps(dense) == dumps(cold)
        assert not any("source" in r for r in dense)

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        axes = {"router_delay": (1, 2)}
        whole = steered_sweep(BASE, axes, fake_runner, rates=RATES)
        journal = tmp_path / "steer.jsonl"
        calls = []

        def interrupting_runner(cfg, **kwargs):
            calls.append(kwargs["rate"])
            if len(calls) == 4:
                raise KeyboardInterrupt
            return fake_runner(cfg, **kwargs)

        with pytest.raises(KeyboardInterrupt):
            steered_sweep(BASE, axes, interrupting_runner, rates=RATES, journal=journal)
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert lines[-1]["health"]["interrupted"] is True
        n_fills = sum(r["source"] == "analytical" for r in whole)
        assert sum("index" in e for e in lines) == n_fills + 3

        executed = []

        def counting_runner(cfg, **kwargs):
            executed.append(kwargs["rate"])
            return fake_runner(cfg, **kwargs)

        resumed = steered_sweep(
            BASE, axes, counting_runner, rates=RATES, journal=journal, resume=True
        )
        assert len(executed) == len(whole) - n_fills - 3  # only the missing points ran
        assert [r["source"] for r in resumed] == [r["source"] for r in whole]
        assert dumps(resumed) == dumps(whole)  # via JSON: analytical fills hold NaNs
        assert resumed.health.ok == len(whole) and resumed.plans == whole.plans
        # The steering knobs and the config are part of the journal's identity.
        with pytest.raises(ValueError, match="different sweep"):
            steered_sweep(
                BASE, axes, fake_runner, rates=RATES, sim_fraction=0.25,
                journal=journal, resume=True,
            )
        with pytest.raises(ValueError, match="different sweep"):
            steered_sweep(
                BASE.with_(seed=99), axes, fake_runner, rates=RATES,
                journal=journal, resume=True,
            )

    def test_steered_via_service_equals_local(self):
        from repro.service import Controller, ControllerServer, ServiceOptions

        axes = {"router_delay": (1, 2)}
        local = steered_sweep(BASE, axes, fake_runner, rates=RATES)
        with ControllerServer(Controller(ServiceOptions(fallback_after=0.05))) as server:
            host, port = server.address
            remote = steered_sweep(
                BASE, axes, fake_runner, rates=RATES, remote=f"{host}:{port}"
            )
        assert [r["source"] for r in remote] == [r["source"] for r in local]
        assert dumps(remote) == dumps(local)
        assert remote.health.ok == local.health.ok == len(local)

    def test_validation(self):
        with pytest.raises(ValueError, match="sim_fraction"):
            steered_sweep(BASE, {}, fake_runner, rates=RATES, sim_fraction=0.0)
        with pytest.raises(ValueError, match="min_simulated"):
            steered_sweep(
                BASE, {}, fake_runner, rates=RATES, min_simulated=0
            )
        with pytest.raises(ValueError, match="rates"):
            steered_sweep(BASE, {}, fake_runner, rates=())


# ---------------------------------------------------------------------------
# end-to-end: steering a real (tiny) open-loop sweep
# ---------------------------------------------------------------------------


class TestSteeredOpenLoop:
    @pytest.mark.parametrize(
        "cfg, rates, windows",
        [
            pytest.param(
                BASE,
                tuple(round(0.1 * i, 1) for i in range(1, 10)),
                dict(warmup=200, measure=400, drain_limit=4000),
                id="4x4",
            ),
            # the paper's mesh swept across its knee (model saturation 0.42)
            pytest.param(
                NetworkConfig(k=8, n=2, seed=7),
                tuple(round(0.05 * i, 2) for i in range(1, 11)),
                dict(warmup=500, measure=1000, drain_limit=10000),
                id="8x8",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_knee_within_one_grid_step_of_dense(self, cfg, rates, windows):
        runner = functools.partial(_openloop_runner, **windows)
        dense = run_sweep(cfg, {}, runner, extra_axes={"rate": rates})
        dense_knee = find_knee(
            rates, [r["latency"] for r in dense]
        )
        steered = steered_sweep(cfg, {}, runner, rates=rates)
        (plan,) = steered.plans
        assert abs(plan.knee_index - dense_knee) <= 1
        # simulated budget respected on the real runner too
        n_sim = sum(1 for r in steered if r["source"] == "simulated")
        assert n_sim <= len(rates) // 2
        # the simulated window brackets the dense knee's neighbourhood
        sim_rates = [
            r["rate"] for r in steered if r["source"] == "simulated"
        ]
        assert min(sim_rates) <= rates[dense_knee] <= max(sim_rates)
