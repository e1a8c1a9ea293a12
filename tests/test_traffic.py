"""Tests for traffic patterns and size distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.config import NetworkConfig
from repro.traffic import (
    Bimodal,
    BitComplement,
    BitReversal,
    FixedSize,
    SingleFlit,
    Transpose,
    UniformRandom,
    build_pattern,
    build_sizes,
)


class TestUniformRandom:
    def test_never_self(self):
        p = UniformRandom(16)
        gen = rng_mod.make_generator(1, "t")
        for src in range(16):
            for _ in range(50):
                assert p.dest(src, gen) != src

    def test_covers_all_destinations(self):
        p = UniformRandom(8)
        gen = rng_mod.make_generator(1, "t")
        seen = {p.dest(3, gen) for _ in range(500)}
        assert seen == set(range(8)) - {3}

    def test_roughly_uniform(self):
        p = UniformRandom(8)
        gen = rng_mod.make_generator(1, "t")
        counts = np.zeros(8)
        for _ in range(7000):
            counts[p.dest(0, gen)] += 1
        assert counts[0] == 0
        assert counts[1:].min() > 7000 / 7 * 0.8

    def test_vectorized_matches_semantics(self):
        p = UniformRandom(16)
        gen = rng_mod.make_generator(2, "t")
        d = p.dests(5, 1000, gen)
        assert (d != 5).all()
        assert d.min() >= 0 and d.max() < 16

    def test_vectorized_accepts_one_source_per_draw(self):
        p = UniformRandom(16)
        srcs = np.arange(16).repeat(50)
        a = p.dests(srcs, len(srcs), rng_mod.make_generator(2, "t"))
        gen = rng_mod.make_generator(2, "t")
        assert a.tolist() == [p.dest(int(src), gen) for src in srcs]

    def test_not_permutation(self):
        """One source's destination varies from packet to packet."""
        p = UniformRandom(8)
        gen = rng_mod.make_generator(1, "t")
        assert len({p.dest(0, gen) for _ in range(50)}) > 1


class TestBatchedDrawPremise:
    """What the open-loop injector's one-call-per-cycle destination draw
    rests on: NumPy's bounded integers consume the bit stream identically
    whether drawn one at a time or in chunks of any size."""

    @pytest.mark.parametrize("n", [15, 63, 255, 4095])
    def test_chunked_integers_equal_scalar_draws(self, n):
        scalar = rng_mod.make_generator(9, "premise")
        chunked = rng_mod.make_generator(9, "premise")
        chunks = [1, 3, 1, 64, 2, 17, 1, 1, 200, 5]
        want = [int(scalar.integers(0, n)) for _ in range(sum(chunks))]
        got = []
        for m in chunks:
            got.extend(chunked.integers(0, n, size=m).tolist())
        assert got == want
        assert chunked.bit_generator.state == scalar.bit_generator.state


class TestTranspose:
    def test_mapping(self):
        p = Transpose(16)  # 4x4
        gen = rng_mod.make_generator(1, "t")
        # (1,0) = node 1 -> (0,1) = node 4
        assert p.dest(1, gen) == 4
        assert p.dest(4, gen) == 1

    def test_diagonal_fixed_points(self):
        p = Transpose(16)
        gen = rng_mod.make_generator(1, "t")
        for d in (0, 5, 10, 15):
            assert p.dest(d, gen) == d

    def test_is_involution(self):
        p = Transpose(64)
        t = p.table
        assert (t[t] == np.arange(64)).all()

    def test_requires_square(self):
        with pytest.raises(ValueError):
            Transpose(8)


class TestBitPatterns:
    def test_complement(self):
        p = BitComplement(16)
        gen = rng_mod.make_generator(1, "t")
        assert p.dest(0, gen) == 15
        assert p.dest(5, gen) == 10

    def test_reversal(self):
        p = BitReversal(16)
        gen = rng_mod.make_generator(1, "t")
        assert p.dest(0b0001, gen) == 0b1000
        assert p.dest(0b1010, gen) == 0b0101

    def test_reversal_is_involution(self):
        t = BitReversal(64).table
        assert (t[t] == np.arange(64)).all()

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BitComplement(12)
        with pytest.raises(ValueError):
            BitReversal(12)


class TestOtherPermutations:
    @given(st.sampled_from([4, 16, 64]))
    @settings(max_examples=10, deadline=None)
    def test_all_permutations_are_bijections(self, n):
        for cls in (Transpose, BitComplement, BitReversal):
            table = cls(n).table
            assert sorted(table.tolist()) == list(range(n))


class TestSizes:
    def test_single(self):
        s = SingleFlit()
        gen = rng_mod.make_generator(1, "t")
        assert all(s.draw(gen) == 1 for _ in range(10))
        assert s.mean == 1.0

    def test_fixed(self):
        s = FixedSize(4)
        gen = rng_mod.make_generator(1, "t")
        assert s.draw(gen) == 4
        assert s.mean == 4.0
        with pytest.raises(ValueError):
            FixedSize(0)

    def test_bimodal_values_and_mean(self):
        s = Bimodal(1, 4, long_fraction=0.5)
        gen = rng_mod.make_generator(1, "t")
        draws = [s.draw(gen) for _ in range(4000)]
        assert set(draws) == {1, 4}
        assert np.mean(draws) == pytest.approx(2.5, abs=0.15)
        assert s.mean == pytest.approx(2.5)

    def test_bimodal_extremes(self):
        gen = rng_mod.make_generator(1, "t")
        assert Bimodal(1, 4, long_fraction=0.0).draw(gen) == 1
        assert Bimodal(1, 4, long_fraction=1.0).draw(gen) == 4

    def test_bimodal_validation(self):
        with pytest.raises(ValueError):
            Bimodal(4, 1)
        with pytest.raises(ValueError):
            Bimodal(1, 4, long_fraction=2.0)


class TestRegistry:
    def test_build_pattern_each_name(self):
        for name, cls in (
            ("uniform_random", UniformRandom),
            ("transpose", Transpose),
            ("bit_complement", BitComplement),
            ("bit_reversal", BitReversal),
        ):
            cfg = NetworkConfig(traffic=name)
            assert isinstance(build_pattern(cfg), cls)

    def test_pattern_size_matches_config(self):
        p = build_pattern(NetworkConfig(k=4, n=2))
        assert p.num_nodes == 16

    def test_build_sizes(self):
        assert isinstance(build_sizes(NetworkConfig()), SingleFlit)
        bi = build_sizes(NetworkConfig(packet_size="bimodal"))
        assert isinstance(bi, Bimodal)
        assert bi.long == 4
