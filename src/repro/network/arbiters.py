"""Switch arbitration policies (paper Table I plus strict priority).

One arbiter instance serves one output port.  ``pick`` receives the input
VCs requesting that port this cycle (as ``(ivc_index, packet)`` pairs,
sorted by ivc_index for determinism) and returns the winning pair.

``round_robin`` (rotating pointer) and ``age`` (oldest packet first) are
the paper's Table I policies; ``priority`` lets the OS model's kernel
traffic outrank user traffic (:mod:`repro.network.packet`), with age as the
tie-break.  Only round-robin carries state; the other two are pure
functions of the requests, which is what lets the vectorized backend replay
their decisions from one sort per cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "Arbiter",
    "RoundRobinArbiter",
    "AgeArbiter",
    "StrictPriorityArbiter",
    "build_arbiter",
]


class Arbiter(ABC):
    """Selects one winner among requesting input VCs."""

    name: str = "abstract"

    @abstractmethod
    def pick(self, requests: list) -> tuple:
        """Return the winning ``(ivc_index, packet)`` pair.

        ``requests`` is non-empty and sorted by ivc_index.
        """


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter: fair, stateful, O(len(requests))."""

    name = "round_robin"

    __slots__ = ("size", "ptr")

    def __init__(self, size: int):
        self.size = size
        self.ptr = 0

    def pick(self, requests: list) -> tuple:
        winner = None
        for req in requests:
            if req[0] >= self.ptr:
                winner = req
                break
        if winner is None:
            winner = requests[0]
        self.ptr = (winner[0] + 1) % self.size
        return winner


class AgeArbiter(Arbiter):
    """Oldest-packet-first arbiter (global age = creation time).

    Age-based arbitration reduces latency variance and starvation; ties
    break on packet id, then ivc index, keeping runs deterministic.
    """

    name = "age"

    __slots__ = ()

    def pick(self, requests: list) -> tuple:
        return min(requests, key=_age_key)


def _age_key(req: tuple) -> tuple:
    pkt = req[1]
    return (pkt.create_time, pkt.pid, req[0])


class StrictPriorityArbiter(Arbiter):
    """The higher traffic class always wins (OS over user); age breaks ties.

    Stateless: the key ``(-traffic_class, create_time, pid, ivc)`` is a pure
    function of the request, so the vectorized backend reproduces it with
    one lexsort.
    """

    name = "priority"

    __slots__ = ()

    def pick(self, requests: list) -> tuple:
        return min(requests, key=_priority_key)


def _priority_key(req: tuple) -> tuple:
    pkt = req[1]
    return (-pkt.traffic_class, pkt.create_time, pkt.pid, req[0])


def build_arbiter(name: str, size: int) -> Arbiter:
    """Construct the arbiter named in the config (one per output port)."""
    if name == "round_robin":
        return RoundRobinArbiter(size)
    if name == "age":
        return AgeArbiter()
    if name == "priority":
        return StrictPriorityArbiter()
    raise ValueError(f"unknown arbitration {name!r}")
