"""Tests for the deterministic RNG discipline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import rng as rng_mod


class TestSpawn:
    def test_deterministic(self):
        assert rng_mod.spawn(1, "a", 2) == rng_mod.spawn(1, "a", 2)

    def test_label_sensitivity(self):
        assert rng_mod.spawn(1, "inject", 3) != rng_mod.spawn(1, "inject", 4)
        assert rng_mod.spawn(1, "inject", 3) != rng_mod.spawn(1, "credit", 3)

    def test_seed_sensitivity(self):
        assert rng_mod.spawn(1, "a") != rng_mod.spawn(2, "a")

    def test_result_is_64_bit(self):
        s = rng_mod.spawn(123456789, "x", "y", 42)
        assert 0 <= s < 2**64

    def test_label_concatenation_is_not_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc"): separator in the hash.
        assert rng_mod.spawn(1, "ab", "c") != rng_mod.spawn(1, "a", "bc")

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=20))
    def test_spawn_total_and_stable(self, seed, label):
        a = rng_mod.spawn(seed, label)
        b = rng_mod.spawn(seed, label)
        assert a == b
        assert 0 <= a < 2**64


_axis_values = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["mesh", "torus", "ring", "dor", "val"]),
    st.booleans(),
)
_points = st.dictionaries(
    st.sampled_from(["router_delay", "vc_buffer_size", "m", "rate", "topology"]),
    _axis_values,
    min_size=1,
    max_size=5,
)


class TestSweepSeed:
    @given(st.integers(min_value=0, max_value=2**63), _points)
    def test_deterministic_and_64_bit(self, seed, point):
        a = rng_mod.sweep_seed(seed, point)
        assert a == rng_mod.sweep_seed(seed, point)
        assert 0 <= a < 2**64

    @given(st.integers(min_value=0, max_value=2**63), _points)
    def test_insertion_order_irrelevant(self, seed, point):
        """Same point → same seed no matter which worker built the dict how."""
        reversed_point = dict(reversed(list(point.items())))
        assert rng_mod.sweep_seed(seed, point) == rng_mod.sweep_seed(
            seed, reversed_point
        )

    @given(
        st.integers(min_value=0, max_value=2**63),
        _points,
        _points,
    )
    def test_distinct_points_get_distinct_seeds(self, seed, a, b):
        if a != b:
            assert rng_mod.sweep_seed(seed, a) != rng_mod.sweep_seed(seed, b)

    def test_distinct_across_a_grid(self):
        seeds = [
            rng_mod.sweep_seed(1, {"router_delay": tr, "injection_rate": rate})
            for tr in (1, 2, 4, 8)
            for rate in (0.05, 0.1, 0.15, 0.2)
        ]
        assert len(set(seeds)) == len(seeds)

    def test_value_type_distinguished(self):
        # the int 1 and the string "1" are different coordinates
        assert rng_mod.sweep_seed(1, {"a": 1}) != rng_mod.sweep_seed(1, {"a": "1"})

    def test_name_value_pairing_unambiguous(self):
        assert rng_mod.sweep_seed(1, {"ab": "c"}) != rng_mod.sweep_seed(1, {"a": "bc"})


class TestMakeGenerator:
    def test_generators_reproduce(self):
        g1 = rng_mod.make_generator(7, "stream")
        g2 = rng_mod.make_generator(7, "stream")
        assert np.array_equal(g1.random(16), g2.random(16))

    def test_different_labels_differ(self):
        g1 = rng_mod.make_generator(7, "a")
        g2 = rng_mod.make_generator(7, "b")
        assert not np.array_equal(g1.random(16), g2.random(16))


_SPANS = (1, 2, 127, 2**31 + 1, 2**32)
#: one draw: ``None`` is ``random()``, a pair ``(low, span)`` is
#: ``integers(low, low + span)``
_draws = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.integers(-(2**40), 2**40), st.sampled_from(_SPANS)),
    ),
    max_size=200,
)


class TestStream:
    """``Stream`` returns what a twin ``Generator`` returns, call for call."""

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=64),
        st.sampled_from((None, 2, 127, 2**31 + 1)),
        _draws,
    )
    def test_equals_twin_generator(self, seed, block, pre_span, draws):
        wrapped = np.random.Generator(np.random.PCG64(seed))
        twin = np.random.Generator(np.random.PCG64(seed))
        if pre_span is not None:
            # draw until the generator holds a buffered 32-bit half-word
            # (a Lemire rejection can use up both halves of a raw output)
            while True:
                assert wrapped.integers(0, pre_span) == twin.integers(0, pre_span)
                if wrapped.bit_generator.state["has_uint32"]:
                    break
        stream = rng_mod.Stream(wrapped.bit_generator, block)
        for draw in draws:
            if draw is None:
                got, want = stream.random(), twin.random()
                assert isinstance(got, float)
            else:
                low, span = draw
                got, want = stream.integers(low, low + span), twin.integers(low, low + span)
                assert isinstance(got, int)
            assert got == want

    def test_make_stream_matches_make_generator(self):
        stream = rng_mod.make_stream(7, "core", 3, "lu")
        gen = rng_mod.make_generator(7, "core", 3, "lu")
        for _ in range(100):
            assert stream.random() == gen.random()
            assert stream.integers(0, 256) == gen.integers(0, 256)

    def test_wider_spans_and_empty_ranges_raise(self):
        stream = rng_mod.make_stream(1, "wide")
        with pytest.raises(ValueError):
            stream.integers(0, 2**32 + 1)
        with pytest.raises(ValueError):
            stream.integers(5, 5)

    def test_block_is_bounded(self):
        bitgen = np.random.PCG64(1)
        for block in (0, 65):
            with pytest.raises(ValueError):
                rng_mod.Stream(bitgen, block)
