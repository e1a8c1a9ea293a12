"""Tests for cache and MSHR structures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execdriven.cache import SetAssocCache
from repro.execdriven.mshr import MSHRFile


class TestSetAssocCache:
    def test_miss_then_hit(self):
        c = SetAssocCache(16, 4)
        assert not c.access(7)
        assert c.access(7)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_lru_eviction(self):
        c = SetAssocCache(4, 4)  # one set, 4 ways
        for line in (0, 1, 2, 3):
            c.access(line)
        c.access(0)  # 0 becomes MRU; LRU is now 1
        c.access(4)  # evicts 1
        assert c.probe(0)
        assert not c.probe(1)
        assert c.probe(4)

    def test_set_isolation(self):
        c = SetAssocCache(8, 2)  # 4 sets
        c.access(0)
        c.access(4)
        c.access(8)  # same set as 0 and 4: evicts LRU=0
        assert not c.probe(0)
        assert c.probe(4) and c.probe(8)
        assert c.probe(1) is False  # different set untouched

    def test_lookup_does_not_fill(self):
        c = SetAssocCache(8, 2)
        assert not c.lookup(3)
        assert not c.probe(3)
        assert c.stats.misses == 1

    def test_fill_then_lookup_hits(self):
        c = SetAssocCache(8, 2)
        c.fill(3)
        assert c.lookup(3)
        assert c.stats.hits == 1 and c.stats.misses == 0

    def test_fill_respects_capacity(self):
        c = SetAssocCache(4, 2)
        for line in (0, 2, 4):  # all map to set 0? lines%2 sets... 0,2,4 -> set 0
            c.fill(line)
        assert c.occupancy() <= 4

    def test_miss_rate(self):
        c = SetAssocCache(8, 2)
        c.access(0)
        c.access(0)
        assert c.stats.miss_rate == pytest.approx(0.5)
        c.stats.reset()
        assert c.stats.accesses == 0

    def test_capacity_and_validation(self):
        assert SetAssocCache(512, 4).capacity == 512
        with pytest.raises(ValueError):
            SetAssocCache(10, 4)
        with pytest.raises(ValueError):
            SetAssocCache(0, 1)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = SetAssocCache(16, 4)
        for line in lines:
            c.access(line)
        assert c.occupancy() <= 16
        # every line in a working set <= capacity/sets per set stays resident
        assert c.stats.accesses == len(lines)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_working_set_within_one_way_never_misses_twice(self, lines):
        # 4 distinct lines mapping to 4 sets of a 16-line cache: after the
        # first touch each line stays resident forever.
        c = SetAssocCache(16, 4)
        misses_per_line = {}
        for line in lines:
            if not c.access(line):
                misses_per_line[line] = misses_per_line.get(line, 0) + 1
        assert all(v == 1 for v in misses_per_line.values())

    @given(
        st.sampled_from([(4, 1), (8, 2), (16, 4), (24, 3)]),
        st.lists(
            st.one_of(
                st.tuples(st.just("run"), st.integers(0, 60), st.integers(0, 90)),
                st.tuples(
                    st.sampled_from(["fill", "access", "lookup", "probe"]),
                    st.integers(0, 150),
                ),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_fill_run_equals_the_fill_loop(self, shape, ops):
        """``fill_run(start, count)`` is ``fill(start) … fill(start+count-1)``
        whatever sets earlier operations have already opened: same answers,
        same stats, same set contents in the same LRU order."""
        lazy, loop = SetAssocCache(*shape), SetAssocCache(*shape)
        for op, *args in ops:
            if op == "run":
                start, count = args
                lazy.fill_run(start, count)
                for line in range(start, start + count):
                    loop.fill(line)
            else:
                assert getattr(lazy, op)(*args) == getattr(loop, op)(*args)
        assert lazy.occupancy() == loop.occupancy()  # opens every set
        assert [list(s) for s in lazy._sets] == [list(s) for s in loop._sets]
        assert (lazy.stats.hits, lazy.stats.misses) == (loop.stats.hits, loop.stats.misses)

    def test_fill_run_builds_no_set_until_touched(self):
        c = SetAssocCache(64, 4)
        c.fill_run(100, 1000)
        assert all(s is None for s in c._sets)
        assert c.probe(1099) and not c.probe(100)  # 16 sets x 4 ways: the last 64 lines
        assert sum(s is not None for s in c._sets) == 2


class TestMSHRFile:
    def test_allocate_until_full(self):
        m = MSHRFile(2)
        assert m.allocate(1) == "allocated"
        assert m.allocate(2) == "allocated"
        assert m.allocate(3) == "full"
        assert m.full
        assert m.full_stalls == 1

    def test_merge_secondary_miss(self):
        m = MSHRFile(2)
        m.allocate(1)
        assert m.allocate(1) == "merged"
        assert m.merged == 1
        assert len(m) == 1  # merging consumes no extra entry

    def test_release_frees_entry(self):
        m = MSHRFile(1)
        m.allocate(5)
        m.allocate(5)
        assert m.release(5) == 2  # merged count
        assert not m.full
        assert m.allocate(6) == "allocated"

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            MSHRFile(1).release(42)

    def test_lookup_and_outstanding(self):
        m = MSHRFile(4)
        m.allocate(1)
        m.allocate(9)
        assert m.lookup(1) and m.lookup(9) and not m.lookup(2)
        assert m.outstanding() == [1, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded(self, lines):
        m = MSHRFile(3)
        outstanding = set()
        for line in lines:
            status = m.allocate(line)
            if status == "allocated":
                outstanding.add(line)
            assert len(m) <= 3
            if len(outstanding) == 3 and status == "allocated":
                m.release(line)
                outstanding.discard(line)
