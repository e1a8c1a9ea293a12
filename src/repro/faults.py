"""The fault model: which links and routers fail, and when.

* :class:`FaultPlan` — a declarative, deterministic description of failed
  links/routers and their windows, parsed from a compact spec string
  (``NetworkConfig.faults`` / CLI ``--faults``).  Resolution against a
  topology plus a seed yields the concrete directed channels to disable;
  the same seed always picks the same links, so faulted sweeps are
  bit-reproducible serial vs. parallel.
* :class:`FaultState` — the schedule a network applies each cycle, with
  the reachability cache behind :class:`UnreachableDestination` and
  :mod:`repro.routing.fault`.

``NetworkConfig`` parses a spec here in control-plane processes too, so
this module imports neither numpy nor the simulator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import rng as rng_mod

if TYPE_CHECKING:  # pragma: no cover
    from .topology.base import Topology

__all__ = [
    "LinkFault",
    "RouterFault",
    "RandomLinkFaults",
    "FaultPlan",
    "FaultState",
    "UNREACHABLE",
    "UnreachableDestination",
]


class UnreachableDestination(RuntimeError):
    """A packet's destination is unreachable under the active fault set."""

    def __init__(self, src: int, dst: int, cycle: int):
        self.src = src
        self.dst = dst
        self.cycle = cycle
        super().__init__(
            f"node {dst} is unreachable from node {src} at cycle {cycle} "
            "under the active fault set"
        )


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFault:
    """Fail the directed channel ``src -> dst`` during ``[start, end)``.

    ``end=None`` means permanent.  ``both=True`` also fails ``dst -> src``
    (a physical bidirectional link).
    """

    src: int
    dst: int
    start: int = 0
    end: Optional[int] = None
    both: bool = False


@dataclass(frozen=True)
class RouterFault:
    """Fail every channel into and out of ``node`` during ``[start, end)``."""

    node: int
    start: int = 0
    end: Optional[int] = None


@dataclass(frozen=True)
class RandomLinkFaults:
    """Fail ``count`` seeded-random physical links during ``[start, end)``.

    Selection is over *undirected* links (both directions fail together)
    and is a pure function of the resolution seed, so the same config seed
    always kills the same links.
    """

    count: int
    start: int = 0
    end: Optional[int] = None


#: distance sentinel for nodes cut off by the active fault set
UNREACHABLE = 1 << 30

_WINDOW_RE = re.compile(r"^(\d+)(?:-(\d+))?$")


def _parse_window(text: str) -> tuple[int, Optional[int]]:
    m = _WINDOW_RE.match(text)
    if not m:
        raise ValueError(f"bad fault window {text!r} (expected START or START-END)")
    start = int(m.group(1))
    end = int(m.group(2)) if m.group(2) is not None else None
    if end is not None and end <= start:
        raise ValueError(f"bad fault window {text!r} (end must exceed start)")
    return start, end


class FaultPlan:
    """A declarative set of fault clauses, resolvable against any topology.

    Spec grammar (clauses joined with ``;``, optional ``@`` window suffix
    in cycles — ``@START`` onward, ``@START-END`` transient)::

        links:K              K seeded-random physical links (both directions)
        link:A>B             the directed channel A -> B
        link:A-B             both directions between adjacent nodes A and B
        router:N             every channel into and out of node N
.
    Examples: ``"links:2"``, ``"link:3>4@100-500"``,
    ``"links:1;router:9@1000"``.
    """

    def __init__(self, clauses: Iterable[object] = ()):
        self.clauses: tuple = tuple(clauses)
        for clause in self.clauses:
            if not isinstance(clause, (LinkFault, RouterFault, RandomLinkFaults)):
                raise TypeError(f"not a fault clause: {clause!r}")

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.clauses)!r})"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see class docstring for the grammar)."""
        clauses: list[object] = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            try:
                cls._parse_clause(raw, clauses)
            except ValueError as exc:
                raise ValueError(f"bad fault clause {raw!r}: {exc}") from None
        if not clauses:
            raise ValueError(f"fault spec {spec!r} contains no clauses")
        return cls(clauses)

    @classmethod
    def _parse_clause(cls, raw: str, clauses: list) -> None:
        body, _, window = raw.partition("@")
        start, end = _parse_window(window) if window else (0, None)
        kind, sep, arg = body.partition(":")
        kind = kind.strip()
        arg = arg.strip()
        if not sep or not arg:
            raise ValueError("expected KIND:ARG")
        if kind == "links":
            count = int(arg)
            if count < 1:
                raise ValueError("links:K needs K >= 1")
            clauses.append(RandomLinkFaults(count, start, end))
        elif kind == "link":
            if ">" in arg:
                a, b = arg.split(">", 1)
                clauses.append(LinkFault(int(a), int(b), start, end))
            elif "-" in arg:
                a, b = arg.split("-", 1)
                clauses.append(LinkFault(int(a), int(b), start, end, both=True))
            else:
                raise ValueError("link needs A>B (directed) or A-B (both ways)")
        elif kind == "router":
            clauses.append(RouterFault(int(arg), start, end))
        else:
            raise ValueError(
                f"unknown fault clause kind {kind!r} (links/link/router)"
            )

    # -- resolution ---------------------------------------------------------
    def resolve(
        self, topology: "Topology", seed: int
    ) -> list[tuple[int, int, int, Optional[int]]]:
        """Concrete faults as ``(node, out_port, start, end)`` tuples.

        Raises :class:`ValueError` for links between non-adjacent nodes or
        random counts exceeding the topology's physical link count.
        """
        by_pair: dict[tuple[int, int], int] = {}
        for ch in topology.channels():
            by_pair[(ch.src, ch.dst)] = ch.out_port
        resolved: list[tuple[int, int, int, Optional[int]]] = []

        def add_directed(a: int, b: int, start: int, end: Optional[int]) -> None:
            port = by_pair.get((a, b))
            if port is None:
                raise ValueError(
                    f"fault names channel {a}->{b}, but the topology has no "
                    "such link"
                )
            resolved.append((a, port, start, end))

        for clause in self.clauses:
            if isinstance(clause, LinkFault):
                add_directed(clause.src, clause.dst, clause.start, clause.end)
                if clause.both:
                    add_directed(clause.dst, clause.src, clause.start, clause.end)
            elif isinstance(clause, RouterFault):
                node = clause.node
                if not 0 <= node < topology.num_nodes:
                    raise ValueError(f"router fault names node {node}, out of range")
                for (a, b), port in by_pair.items():
                    if a == node or b == node:
                        resolved.append((a, port, clause.start, clause.end))
            else:  # RandomLinkFaults
                undirected = sorted(
                    {(min(a, b), max(a, b)) for (a, b) in by_pair}
                )
                if clause.count > len(undirected):
                    raise ValueError(
                        f"links:{clause.count} exceeds the topology's "
                        f"{len(undirected)} physical links"
                    )
                gen = rng_mod.make_generator(seed, "fault-links")
                picks = gen.choice(len(undirected), size=clause.count, replace=False)
                for i in sorted(int(p) for p in picks):
                    a, b = undirected[i]
                    if (a, b) in by_pair:
                        add_directed(a, b, clause.start, clause.end)
                    if (b, a) in by_pair:
                        add_directed(b, a, clause.start, clause.end)
        return resolved


class FaultState:
    """Runtime fault bookkeeping for one :class:`~repro.network.network.Network`.

    Owns the activation/deactivation schedule, the set of currently-faulted
    ``(node, out_port)`` channels, and a reachability cache used for
    unreachable-pair detection.  It holds the topology, never the network:
    the network hands itself to :meth:`apply`, which sets the per-router
    fault bitmasks and bumps ``network._fault_version`` (what tells blocked
    head flits to recompute their routes after the fault set changes).
    """

    def __init__(self, resolved: Sequence[tuple[int, int, int, Optional[int]]], topology):
        self.topology = topology
        self.active: set[tuple[int, int]] = set()
        self._events: dict[int, list[tuple[int, int, int]]] = {}
        for node, port, start, end in resolved:
            self._events.setdefault(max(start, 0), []).append((node, port, +1))
            if end is not None:
                self._events.setdefault(end, []).append((node, port, -1))
        self._dist: dict[int, list[int]] = {}
        self._rev: Optional[list[list[int]]] = None

    @property
    def has_events(self) -> bool:
        return bool(self._events)

    # Kept for Network.next_internal_event_cycle, which the benchmark
    # tracer (benchmarks/e2e/tracing.py) binds by name.
    def next_event_cycle(self) -> Optional[int]:
        """Earliest pending activation/deactivation cycle (None when done)."""
        if not self._events:
            return None
        return min(self._events)

    def apply(self, now: int, net) -> None:
        """Apply the activation/deactivation events scheduled for ``now`` to
        ``net``'s routers."""
        bucket = self._events.pop(now, None)
        if bucket is None:
            return
        routers = net.routers
        for node, port, delta in bucket:
            if delta > 0:
                self.active.add((node, port))
                routers[node].fault_mask |= 1 << port
            else:
                self.active.discard((node, port))
                routers[node].fault_mask &= ~(1 << port)
        net._fault_version += 1
        self._dist = {}
        self._rev = None

    def is_faulted(self, node: int, port: int) -> bool:
        return (node, port) in self.active

    def admit(self, packet, now: int) -> None:
        """Raise :class:`UnreachableDestination` if ``packet``, offered at
        cycle ``now``, cannot reach its destination under the active set."""
        if self.active and not self.reachable(packet.src, packet.dst):
            raise UnreachableDestination(packet.src, packet.dst, now)

    def distances_to(self, target: int) -> list[int]:
        """Hop distance from every node to ``target`` over non-faulted links.

        BFS on the reversed directed graph, cached per target until the
        next fault-set change.  Unreachable nodes get ``UNREACHABLE`` (an
        effectively infinite sentinel).  The fault-aware routing fallback
        steers every hop strictly downhill on this metric, which is what
        makes detours oscillation-free.
        """
        dist = self._dist.get(target)
        if dist is None:
            topo = self.topology
            n = topo.num_nodes
            rev = self._rev
            if rev is None:
                # Reverse adjacency over non-faulted channels, shared by
                # every BFS of this fault version.
                rev = [[] for _ in range(n)]
                active = self.active
                for ch in topo.channels():
                    if (ch.src, ch.out_port) not in active:
                        rev[ch.dst].append(ch.src)
                self._rev = rev
            dist = [UNREACHABLE] * n
            dist[target] = 0
            frontier = [target]
            d = 0
            while frontier:
                d += 1
                nxt: list[int] = []
                for node in frontier:
                    for prev in rev[node]:
                        if dist[prev] > d:
                            dist[prev] = d
                            nxt.append(prev)
                frontier = nxt
            self._dist[target] = dist
        return dist

    def reachable(self, src: int, dst: int) -> bool:
        """True if ``dst`` is reachable from ``src`` avoiding faulted links."""
        return self.distances_to(dst)[src] < UNREACHABLE
