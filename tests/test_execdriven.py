"""Tests for the execution-driven CMP substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.config import CmpConfig
from repro.execdriven import (
    BENCHMARKS,
    OS,
    USER,
    AddressSpace,
    CmpSystem,
    HomeTile,
    MixtureStream,
    PhaseSpec,
    blackscholes,
    characterize,
    derive_batch_params,
    fft,
    lu,
    timer_interval_cycles,
)
from repro.execdriven.kernel import TIMER_INTERVAL_3GHZ, TIMER_INTERVAL_75MHZ


class TestAddressSpace:
    def test_pools_disjoint(self):
        sp = AddressSpace(16)
        hot = sp.hot_line(3, 5)
        mid = sp.mid_line(5)
        cold = sp.cold_line(5)
        assert len({hot, mid, cold}) == 3

    def test_hot_lines_private_per_core(self):
        sp = AddressSpace(16, hot_lines=64)
        a = {sp.hot_line(0, i) for i in range(64)}
        b = {sp.hot_line(1, i) for i in range(64)}
        assert not (a & b)

    def test_home_tile_interleaves(self):
        sp = AddressSpace(16)
        homes = {sp.home_tile(sp.mid_line(off)) for off in range(64)}
        assert homes == set(range(16))

    def test_block_producer_structured(self):
        sp = AddressSpace(4, producer_block=8)
        line0 = sp.mid_line(0)
        line1 = sp.mid_line(8)
        assert sp.producer_of(line0) == 0
        assert sp.producer_of(line1) == 1

    def test_random_producer_covers_cores(self):
        sp = AddressSpace(16, producer_random=True, producer_block=8)
        producers = {sp.producer_of(sp.mid_line(off)) for off in range(0, 4096, 8)}
        assert len(producers) == 16


class TestMixtureStream:
    def _stream(self, p_mid, p_cold, **kw):
        sp = AddressSpace(16, mid_lines=1024, cold_lines=65536)
        gen = rng_mod.make_generator(1, "stream")
        return sp, MixtureStream(sp, 2, p_mid=p_mid, p_cold=p_cold, rng=gen, **kw)

    def test_pure_hot(self):
        sp, st = self._stream(0.0, 0.0)
        lines = {st.next_line() for _ in range(200)}
        hot = {sp.hot_line(2, i) for i in range(sp.hot_lines)}
        assert lines <= hot

    def test_mixture_fractions(self):
        sp, st = self._stream(0.3, 0.1)
        mid = cold = 0
        n = 5000
        for _ in range(n):
            line = st.next_line()
            if line >= 3 << 40:
                cold += 1
            elif line >= 2 << 40:
                mid += 1
        assert mid / n == pytest.approx(0.3, abs=0.03)
        assert cold / n == pytest.approx(0.1, abs=0.02)

    def test_partner_bias_shapes_logical_traffic(self):
        sp = AddressSpace(16, mid_lines=4096, producer_block=16)
        gen = rng_mod.make_generator(1, "s")
        st = MixtureStream(
            sp, 2, p_mid=1.0, p_cold=0.0, rng=gen, partners=(3,), partner_bias=0.5
        )
        producers = [sp.producer_of(st.next_line()) for _ in range(2000)]
        counts = np.bincount(producers, minlength=16)
        # ~half to self, ~half to partner 3
        assert counts[2] > 600 and counts[3] > 600
        assert counts[2] + counts[3] > 1800

    def test_validation(self):
        sp = AddressSpace(4)
        gen = rng_mod.make_generator(1, "s")
        with pytest.raises(ValueError):
            MixtureStream(sp, 0, p_mid=0.8, p_cold=0.4, rng=gen)
        with pytest.raises(ValueError):
            MixtureStream(sp, 0, p_mid=0.1, p_cold=0.1, rng=gen, partner_bias=2.0)


class TestHomeTile:
    def test_hit_miss_latencies(self):
        tile = HomeTile(0, l2_lines=64, l2_assoc=8, l2_latency=10, memory_latency=300)
        lat, hit = tile.service(16)
        assert not hit and lat == 310
        lat, hit = tile.service(16)
        assert hit and lat == 10

    def test_per_class_miss_rates(self):
        tile = HomeTile(0, l2_lines=64, l2_assoc=8, l2_latency=10, memory_latency=300)
        tile.service(1, traffic_class=USER)   # miss
        tile.service(1, traffic_class=USER)   # hit
        tile.service(2, traffic_class=OS)  # miss
        assert tile.miss_rate(USER) == pytest.approx(0.5)
        assert tile.miss_rate(OS) == 1.0
        assert tile.miss_rate() == pytest.approx(2 / 3)

    def test_interleave_indexing_spreads_sets(self):
        tile = HomeTile(0, l2_lines=64, l2_assoc=2, l2_latency=1, memory_latency=1, interleave=16)
        # lines 0,16,32,... all home here; with interleave they must hit
        # distinct sets rather than thrash one
        for i in range(32):
            tile.service(i * 16)
        misses_before = tile.l2.stats.misses
        for i in range(32):
            assert tile.service(i * 16)[1], "warm line should hit"
        assert tile.l2.stats.misses == misses_before


class TestBenchmarkSpecs:
    def test_all_factories_build(self):
        for name, factory in BENCHMARKS.items():
            spec = factory(5000)
            assert spec.name == name
            assert spec.total_instructions() > 5000  # bursts add to main
            assert spec.timer_handler.traffic_class == OS

    def test_phase_structure_kernel_user_kernel(self):
        spec = lu(5000)
        classes = [p.traffic_class for p in spec.phases]
        assert classes == [OS, USER, OS]

    def test_scaled_preserves_rates(self):
        spec = fft(10000)
        small = spec.scaled(0.1)
        assert small.total_instructions() == pytest.approx(
            spec.total_instructions() * 0.1, rel=0.01
        )
        assert small.phases[1].p_mid == spec.phases[1].p_mid
        assert small.blocking_fraction == spec.blocking_fraction

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec("bad", -1, 0.3, 0.1, 0.1)
        with pytest.raises(ValueError):
            PhaseSpec("bad", 10, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            PhaseSpec("bad", 10, 0.3, 0.8, 0.4)

    def test_l2_miss_targets_ordered(self):
        # fft's cold share must dominate lu's, which dominates barnes'
        def cold_share(spec):
            main = spec.phases[1]
            return main.p_cold / (main.p_mid + main.p_cold)

        assert cold_share(fft(1000)) > cold_share(lu(1000)) > cold_share(blackscholes(1000))


class TestTimerIntervals:
    def test_frequency_ratio(self):
        assert TIMER_INTERVAL_3GHZ / TIMER_INTERVAL_75MHZ == pytest.approx(40, rel=0.01)

    def test_custom(self):
        assert timer_interval_cycles(1e9, timer_hz=100, scale=1000) == 10000
        with pytest.raises(ValueError):
            timer_interval_cycles(0)


class TestCmpSystem:
    def _small(self, spec, **kw):
        return CmpSystem(spec, ideal=kw.pop("ideal", True), seed=2, **kw)

    def test_runs_to_completion_ideal(self):
        res = self._small(blackscholes(2000)).run()
        assert res.completed
        assert res.instructions == 16 * blackscholes(2000).total_instructions()
        assert res.cycles > 2000
        assert res.total_flits > 0

    def test_runs_to_completion_mesh(self):
        res = CmpSystem(blackscholes(1500), ideal=False, seed=2).run()
        assert res.completed
        assert res.nar > 0

    def test_mesh_slower_than_ideal(self):
        ideal = CmpSystem(lu(1500), ideal=True, seed=2).run()
        mesh = CmpSystem(lu(1500), ideal=False, seed=2).run()
        assert mesh.cycles > ideal.cycles

    def test_request_reply_flit_accounting(self):
        res = self._small(blackscholes(1500)).run()
        # every request (1 flit) gets a data reply (4 flits)
        assert res.total_flits == res.requests * 5

    def test_traffic_matrix_conserves(self):
        res = self._small(blackscholes(1500)).run()
        assert res.traffic_matrix.sum() == res.total_flits

    def test_kernel_and_user_traffic_present(self):
        res = self._small(lu(1500)).run()
        assert res.flits_by_class[USER] > 0
        assert res.flits_by_class[OS] > 0
        assert 0 < res.kernel_fraction < 1

    def test_timer_interrupts_fire_and_add_traffic(self):
        base = self._small(lu(1500)).run()
        timer = self._small(lu(1500), timer_interval=500).run()
        assert timer.interrupts > 0
        assert timer.requests_by_kind["kernel_timer"] > 0
        assert base.requests_by_kind["kernel_timer"] == 0
        assert timer.total_flits > base.total_flits

    @pytest.mark.parametrize(
        "spec,interrupts,kinds",
        [
            (lu, 38, {"user": 76, "kernel_burst": 28, "kernel_timer": 3702}),
            (fft, 30, {"user": 122, "kernel_burst": 40, "kernel_timer": 3485}),
        ],
    )
    def test_timer_request_kinds_pinned(self, spec, interrupts, kinds):
        """A request is billed to ``kernel_timer`` by the sending core's
        interrupt state at send time; the ``_retire()`` that follows a
        non-blocking send can pop the handler frame, so a bit read after it
        moves requests between kinds (fft shows it at this size, lu not)."""
        res = CmpSystem(spec(300), CmpConfig(), timer_interval=200, seed=1).run()
        assert res.interrupts == interrupts
        assert res.requests_by_kind == kinds

    def test_timer_rate_measured(self):
        res = self._small(lu(1500), timer_interval=500).run()
        assert res.timer_rate == pytest.approx(1 / 500, rel=0.3)

    def test_deterministic(self):
        a = self._small(fft(1000)).run()
        b = self._small(fft(1000)).run()
        assert a.cycles == b.cycles
        assert a.total_flits == b.total_flits

    def test_warm_start_lowers_l2_miss_rate(self):
        warm = CmpSystem(blackscholes(1500), ideal=True, seed=2).run()
        cold = CmpSystem(blackscholes(1500), ideal=True, seed=2, warm_start=False).run()
        assert warm.l2_miss_rate < cold.l2_miss_rate

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_warm_start_equals_the_per_line_fill(self, name):
        """The recorded runs are the pre-fill they replace: every L2 bank
        and L1 holds the same lines in the same LRU order as after filling
        the mid pool and the hot sets one line at a time."""
        spec = BENCHMARKS[name](1000)
        warm = CmpSystem(spec, ideal=True, seed=2)
        loop = CmpSystem(spec, ideal=True, seed=2, warm_start=False)
        space = loop.space
        for off in range(space.mid_lines):
            line = space.mid_line(off)
            loop.tiles[space.home_tile(line)].fill(line)
        for core in loop.cores:
            for off in range(space.hot_lines):
                core.l1.fill(space.hot_line(core.core_id, off))

        def contents(system):
            caches = [t.l2 for t in system.tiles] + [c.l1 for c in system.cores]
            return [(c.occupancy(), [list(s) for s in c._sets]) for c in caches]

        assert contents(warm) == contents(loop)

    def test_blocking_fraction_slows_execution(self):
        spec_fast = blackscholes(1500)
        object.__setattr__(spec_fast, "blocking_fraction", 0.0)
        spec_slow = blackscholes(1500)
        object.__setattr__(spec_slow, "blocking_fraction", 1.0)
        fast = CmpSystem(spec_fast, ideal=True, seed=2).run()
        slow = CmpSystem(spec_slow, ideal=True, seed=2).run()
        assert slow.cycles > fast.cycles

    def test_timeline_covers_run(self):
        res = self._small(blackscholes(1500), timeline_bucket=200).run()
        assert res.timeline.shape[0] == 2
        assert res.timeline.sum() == res.total_flits

    def test_logical_matrix_structured_for_lu(self):
        res = self._small(lu(3000)).run()
        logical = res.logical_matrix
        assert logical.sum() > 0
        # partner bias: diagonal (self-owned blocks) should dominate
        diag = np.trace(logical)
        assert diag > logical.sum() / 16

    def test_actual_traffic_near_uniform_fig13(self):
        """Fig. 13(b): home-tile interleaving makes real traffic far more
        uniform than the logical sharing pattern."""
        res = self._small(lu(3000)).run()

        def row_cv(m):
            m = m.astype(float)
            rows = m.sum(axis=1, keepdims=True)
            rows[rows == 0] = 1
            norm = m / rows
            return norm.std()

        assert row_cv(res.traffic_matrix) < row_cv(res.logical_matrix)


class TestCharacterize:
    def test_characterization_fields(self):
        ch = characterize(blackscholes(1500), seed=3)
        assert ch.ideal_cycles > 0
        assert 0 < ch.nar < 0.5
        assert 0 <= ch.l2_miss_rate <= 1
        assert ch.user_nar > 0 and ch.os_nar > 0
        assert ch.static_kernel_fraction > 0
        assert ch.interrupts == 0

    def test_benchmark_l2_ordering_matches_paper(self):
        # Table III: fft >> lu > blackscholes in L2 miss rate
        miss = {
            name: characterize(BENCHMARKS[name](2500), seed=3).user_l2_miss
            for name in ("fft", "lu", "blackscholes")
        }
        assert miss["fft"] > miss["lu"] > miss["blackscholes"]

    def test_derive_batch_params(self):
        ch = characterize(lu(1500), timer_interval=500, seed=3)
        params = derive_batch_params(ch)
        assert 0 < params["nar"] <= 1
        assert params["os_model"].timer_rate == pytest.approx(ch.timer_rate)
        assert params["os_model"].static_fraction == ch.static_kernel_fraction
        assert params["reply_model"].models[0].l2_miss_rate == ch.user_l2_miss
