"""Routing algorithm interface.

A routing algorithm answers one question per hop, for the head flit of a
packet sitting at a router: *which output ports may this packet take, and
which virtual channels may it occupy at the downstream router?*

The answer is an ordered list of :class:`RouteCandidate`.  Deterministic
algorithms (DOR) return exactly one candidate; oblivious multi-phase
algorithms (VAL, ROMM) return one candidate per hop but mutate the packet's
``phase`` as it passes its intermediate node; adaptive algorithms (MA) return
several candidates and let the router's VC allocator pick the least congested
one (escape candidates are marked so the allocator only falls back to them).

VC partitioning: ``vc_range(cls, num_classes, num_vcs)`` splits the VC space
into contiguous classes — the dateline discipline and two-phase algorithms
need 2 classes; Duato's MA reserves VC 0 as the escape class.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..network.packet import Packet
from ..topology.base import Topology

__all__ = ["RouteCandidate", "RoutingAlgorithm", "vc_range"]


def vc_range(cls: int, num_classes: int, num_vcs: int) -> tuple[int, ...]:
    """VCs belonging to class ``cls`` of ``num_classes`` over ``num_vcs`` VCs.

    Classes partition the VC space contiguously; every class is non-empty
    provided ``num_vcs >= num_classes``.
    """
    if num_vcs < num_classes:
        raise ValueError(f"need >= {num_classes} VCs, have {num_vcs}")
    lo = cls * num_vcs // num_classes
    hi = (cls + 1) * num_vcs // num_classes
    return tuple(range(lo, hi))


class RouteCandidate:
    """One admissible (output port, allowed downstream VCs) choice."""

    __slots__ = ("out_port", "vcs", "escape")

    def __init__(self, out_port: int, vcs: Sequence[int], escape: bool = False):
        self.out_port = out_port
        self.vcs = tuple(vcs)
        self.escape = escape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = " escape" if self.escape else ""
        return f"RouteCandidate(port={self.out_port}, vcs={self.vcs}{kind})"


class RoutingAlgorithm(ABC):
    """Base class; subclasses are stateless apart from their RNG.

    **Static route rows.**  An algorithm whose :meth:`route` is a pure
    function of ``(node, packet.dst)`` — it reads no other packet field and
    mutates none — may set ``static_rows = True`` and implement
    :meth:`static_row`.  The router then replaces route computation by one
    list index, ``row[packet.dst]``, and never calls :meth:`route` for that
    node again, so every entry must *be* (``is``) the candidate list
    ``route`` returns for that destination.  Rows are built on first use,
    one node at a time, and are immutable once built.  DOR qualifies on a
    mesh and, with the balanced dateline (whose VC class is a function of
    node and destination alone), on a torus or ring; anything that consults
    other packet state (the strict dateline reads ``packet.src``, VAL/ROMM
    read the phase) or allocates per call (MA) does not.
    """

    name: str = "abstract"
    #: True when :meth:`static_row` may stand in for :meth:`route`
    static_rows: bool = False

    def __init__(self, topology: Topology, num_vcs: int):
        self.topology = topology
        self.num_vcs = num_vcs
        self.all_vcs = tuple(range(num_vcs))
        # Candidate lists are immutable, so hot routing functions reuse
        # cached instances instead of allocating per hop.
        self._eject_candidates = [
            RouteCandidate(topology.local_port, self.all_vcs)
        ]

    def on_inject(self, packet: Packet) -> None:
        """Prepare per-packet routing state at injection (e.g. pick an
        intermediate node).  Default: nothing."""

    @abstractmethod
    def route(self, node: int, packet: Packet) -> list[RouteCandidate]:
        """Candidates for the next hop of ``packet`` at ``node``.

        Called exactly once per (packet, hop), when the head flit reaches the
        front of its input VC; implementations may update the packet's
        routing state (phase advance, dateline class).  A candidate whose
        ``out_port`` equals the topology's local port means *eject here*.
        """

    def static_row(self, node: int) -> list[list[RouteCandidate]]:
        """``row[dst] is route(node, packet)``; called only if ``static_rows``."""
        raise NotImplementedError(f"{self.name} routing has no static route rows")

    # -- shared helpers -----------------------------------------------------
    def _eject(self) -> list[RouteCandidate]:
        return self._eject_candidates
