"""Shared-L2 home tiles and the memory backing them (paper Table II).

The L2 is shared and statically distributed: every line address has one
home tile (low-order interleaving), whose bank is a real set-associative
cache.  A request arriving at its home tile is serviced in ``l2_latency``
cycles on a hit, or ``l2_latency + memory_latency`` on a miss (the 300-cycle
DRAM of Table II).  Banks are pipelined (no port contention model); the
network is the contended resource under study.

Per-traffic-class hit/miss counters feed the Table IV user/OS L2 miss-rate
characterization.
"""

from __future__ import annotations

from .cache import SetAssocCache

__all__ = ["HomeTile"]


class HomeTile:
    """One tile's L2 bank plus its slice of the memory controller."""

    __slots__ = (
        "tile_id",
        "l2",
        "l2_latency",
        "memory_latency",
        "interleave",
        "class_hits",
        "class_misses",
    )

    def __init__(
        self,
        tile_id: int,
        *,
        l2_lines: int,
        l2_assoc: int,
        l2_latency: int,
        memory_latency: int,
        interleave: int = 1,
    ):
        self.tile_id = tile_id
        self.l2 = SetAssocCache(l2_lines, l2_assoc)
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        # Banks index with the tile-local address (line // interleave): the
        # low bits select the home tile, so they are constant within a bank
        # and must not feed the set index or 15/16 of the sets sit unused.
        self.interleave = interleave
        self.class_hits: dict[int, int] = {}
        self.class_misses: dict[int, int] = {}

    def fill(self, line: int) -> None:
        """Pre-load ``line`` into the bank (warm-start support)."""
        self.l2.fill(line // self.interleave)

    def fill_run(self, line: int, count: int) -> None:
        """:meth:`fill` the ``count`` lines ``line``, ``line + interleave``,
        … — consecutive bank addresses, hence one run."""
        self.l2.fill_run(line // self.interleave, count)

    def service(self, line: int, traffic_class: int = 0) -> tuple[int, bool]:
        """Serve a request for ``line``: returns (latency, l2_hit).

        The bank fills on a miss (fetch from memory), so reuse across cores
        hits once any core has pulled the line in.
        """
        hit = self.l2.access(line // self.interleave)
        if hit:
            self.class_hits[traffic_class] = self.class_hits.get(traffic_class, 0) + 1
            return self.l2_latency, True
        self.class_misses[traffic_class] = self.class_misses.get(traffic_class, 0) + 1
        return self.l2_latency + self.memory_latency, False

    def miss_rate(self, traffic_class: int | None = None) -> float:
        """L2 miss rate, overall or for one traffic class."""
        if traffic_class is None:
            total = self.l2.stats.accesses
            return self.l2.stats.miss_rate if total else 0.0
        hits = self.class_hits.get(traffic_class, 0)
        misses = self.class_misses.get(traffic_class, 0)
        total = hits + misses
        return misses / total if total else 0.0
