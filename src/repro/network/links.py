"""Time-bucketed event delivery.

Delayed events in the simulator — the ideal fabric's fixed-latency
deliveries, reply service times in the batch and CMP drivers — have small
constant delays, so a dict of per-cycle buckets beats a priority queue:
scheduling is an append, and each cycle pops at most one bucket.  (The
cycle-level network keeps its link and credit buckets as plain dicts of
the same shape, appended to from inside the switch-traversal loop.)
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["TimeBuckets"]


class TimeBuckets:
    """Events grouped by delivery cycle.

    ``schedule(t, ev)`` files ``ev`` under cycle ``t``; ``pop(t)`` removes
    and returns the bucket for cycle ``t`` (or None).  ``pending`` counts
    undelivered events, used for drain/idle detection.
    """

    __slots__ = ("_buckets", "pending")

    def __init__(self) -> None:
        self._buckets: dict[int, list] = {}
        self.pending = 0

    def schedule(self, t: int, event: Any) -> None:
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [event]
        else:
            bucket.append(event)
        self.pending += 1

    def pop(self, t: int) -> Optional[list]:
        bucket = self._buckets.pop(t, None)
        if bucket is not None:
            self.pending -= len(bucket)
        return bucket

    def __bool__(self) -> bool:
        return self.pending > 0
