"""Set-associative caches with LRU replacement.

The execution-driven substrate (this package's stand-in for Simics/GEMS)
uses *real* cache structures driven by synthetic address streams, so miss
rates are emergent — they follow from working-set size vs. capacity, not
from a dialed-in probability.  Addresses are line-granular integers.

LRU is implemented with per-set insertion-ordered dicts: a hit re-inserts
the key (moving it to the MRU end), a miss evicts the oldest entry.  Python
dicts preserve insertion order, which makes this both simple and fast.
"""

from __future__ import annotations

__all__ = ["SetAssocCache", "CacheStats"]


class CacheStats:
    """Hit/miss counters for one cache."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class SetAssocCache:
    """A set-associative, LRU, line-granular cache.

    ``lines`` is total capacity in lines; ``assoc`` the ways per set.
    :meth:`access` performs a lookup-and-fill in one step and returns
    whether it hit.

    Sets are materialised on first touch: an untouched set is ``None`` and
    its contents are implied by the :meth:`fill_run` calls recorded so far,
    so pre-loading a large working set costs nothing for the sets a run
    never reaches.
    """

    __slots__ = ("num_sets", "assoc", "_sets", "_runs", "_any_open", "stats")

    def __init__(self, lines: int, assoc: int):
        if lines < 1 or assoc < 1:
            raise ValueError("lines and assoc must be >= 1")
        if lines % assoc:
            raise ValueError("lines must be a multiple of assoc")
        self.num_sets = lines // assoc
        self.assoc = assoc
        self._sets: list[dict[int, None] | None] = [None] * self.num_sets
        #: ``(start, count)`` of every :meth:`fill_run`, for sets not yet open
        self._runs: list[tuple[int, int]] = []
        self._any_open = False
        self.stats = CacheStats()

    def _open(self, index: int) -> dict[int, None]:
        """Materialise set ``index`` by replaying the recorded runs into it."""
        s = self._sets[index] = {}
        self._any_open = True
        n = self.num_sets
        for start, count in self._runs:
            first = start + (index - start) % n
            # A run's lines are distinct, so of those that map here only the
            # last ``assoc`` can survive it.
            for line in range(first, start + count, n)[-self.assoc :]:
                self.fill(line)
        return s

    def access(self, line: int) -> bool:
        """Look up ``line``; fill on miss (evicting LRU).  True on hit."""
        s = self._sets[line % self.num_sets]
        if s is None:
            s = self._open(line % self.num_sets)
        if line in s:
            # Move to MRU position.
            del s[line]
            s[line] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(s) >= self.assoc:
            del s[next(iter(s))]
        s[line] = None
        return False

    def lookup(self, line: int) -> bool:
        """Look up ``line`` *without* filling on a miss.

        Hits update LRU and stats; misses only update stats.  Use with
        :meth:`fill` for caches whose data arrives later (an L1 in front of
        MSHRs must not pretend to hold a line whose reply is in flight —
        that would defeat secondary-miss merging).
        """
        s = self._sets[line % self.num_sets]
        if s is None:
            s = self._open(line % self.num_sets)
        if line in s:
            del s[line]
            s[line] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, line: int) -> None:
        """Insert ``line`` (evicting LRU if needed) without touching stats."""
        s = self._sets[line % self.num_sets]
        if s is None:
            s = self._open(line % self.num_sets)
        if line in s:
            del s[line]
        elif len(s) >= self.assoc:
            del s[next(iter(s))]
        s[line] = None

    def fill_run(self, start: int, count: int) -> None:
        """``fill(start)`` … ``fill(start + count - 1)``, in that order.

        Recorded, not executed, for every set still untouched; a set that
        is already open takes its lines of the run now, one by one.
        """
        if count <= 0:
            return
        if self._any_open:
            sets, n = self._sets, self.num_sets
            for line in range(start, start + count):
                if sets[line % n] is not None:
                    self.fill(line)
        self._runs.append((start, count))

    def probe(self, line: int) -> bool:
        """Lookup without side effects (no fill, no LRU update, no stats)."""
        s = self._sets[line % self.num_sets]
        if s is None:
            s = self._open(line % self.num_sets)
        return line in s

    @property
    def capacity(self) -> int:
        """Total line capacity."""
        return self.num_sets * self.assoc

    def occupancy(self) -> int:
        """Lines currently resident."""
        return sum(
            len(s if s is not None else self._open(i)) for i, s in enumerate(self._sets)
        )
