"""Fault injection, stall watchdog, and conservation invariants.

Long closed-loop and execution-driven runs are only trustworthy if a
mis-tuned configuration cannot silently spin to ``max_cycles``, and the
framework can only explore degraded-topology scenarios (the EmuNoC /
Pareto-NoC style robustness studies) if link and router failures are a
first-class, *seeded* part of the configuration.  This module provides the
three pieces of that resilience layer:

* :class:`FaultPlan` — a declarative, deterministic description of which
  links/routers fail and when, parsed from a compact spec string
  (``NetworkConfig.faults`` / CLI ``--faults``).  Resolution against a
  topology plus a seed yields the concrete directed channels to disable;
  the same seed always picks the same links, so faulted sweeps are
  bit-reproducible serial vs. parallel.
* :class:`Watchdog` — an opt-in engine plug-in that samples the network's
  forward-progress counters every ``window`` cycles and raises
  :class:`SimulationStalled` (carrying a :class:`StallDiagnosis` snapshot:
  blocked VCs, credit counts, oldest in-flight packet, suspected wait
  cycle) when flits are in flight but nothing has moved for a full window.
* :class:`InvariantChecker` — an opt-in conservation auditor asserting
  flit conservation (injected == ejected + buffered + on-links) and
  per-channel credit conservation each window, raising
  :class:`InvariantViolation` on the first discrepancy.  Enabled per
  engine or globally via the ``REPRO_CHECK_INVARIANTS`` environment
  variable (the CI invariants job sets it for the fast suite).

Everything here is zero-cost when disabled, like probes: a run without
faults/watchdog/invariants executes one ``is None`` test per feature per
cycle and allocates nothing from this module.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .. import rng as rng_mod

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.base import Topology

__all__ = [
    "LinkFault",
    "RouterFault",
    "RandomLinkFaults",
    "FaultPlan",
    "FaultState",
    "RetryPolicy",
    "TRANSIENT_KINDS",
    "UNREACHABLE",
    "UnreachableDestination",
    "SimulationStalled",
    "StallDiagnosis",
    "BlockedVC",
    "Watchdog",
    "InvariantViolation",
    "InvariantChecker",
]


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
#: ``error_kind`` values that are transient by nature and worth retrying:
#: the point itself is deterministic, so only failures of the *executor* —
#: a stalled run aborted by the watchdog, a dead worker process, an expired
#: work lease, a dropped worker connection — can succeed on a re-run.
TRANSIENT_KINDS = frozenset({"stalled", "worker_death", "lease_expired", "disconnect"})


@dataclass
class RetryPolicy:
    """Capped exponential backoff with jitter for transient point failures.

    Shared by the process-pool sweep executor (:mod:`repro.core.parallel`)
    and the distributed sweep service (:mod:`repro.service`): both retry
    *transient* failures (see :data:`TRANSIENT_KINDS`) up to ``max_retries``
    times, sleeping ``backoff * 2**(attempt-1)`` seconds (capped at
    ``max_backoff``) times a jitter factor in ``[1, 1.25)`` between
    attempts.  Deterministic runner exceptions are never retried — the same
    config and seed would fail the same way.

    ``rng`` selects the jitter source: ``None`` (the default) draws from the
    process-global :mod:`random` like the historical behaviour, while a
    :class:`random.Random` instance makes the jitter — and therefore the
    retry timeline — a pure function of its seed.  :meth:`seeded` builds a
    policy whose jitter stream derives from a config seed via
    :func:`repro.rng.spawn`, which is what makes self-healing tests
    deterministic.
    """

    max_retries: int = 2
    backoff: float = 0.25
    max_backoff: float = 5.0
    transient_kinds: frozenset = TRANSIENT_KINDS
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    @classmethod
    def seeded(cls, seed: int, *labels: object, **kwargs) -> "RetryPolicy":
        """A policy whose jitter stream derives from ``seed`` and ``labels``."""
        return cls(rng=random.Random(rng_mod.spawn(seed, "retry-jitter", *labels)), **kwargs)

    def is_transient(self, kind: object) -> bool:
        """True when ``kind`` names a failure worth retrying."""
        return kind in self.transient_kinds

    def should_retry(self, kind: object, attempt: int) -> bool:
        """True when a failure of ``kind`` at 0-based ``attempt`` gets a retry."""
        return self.is_transient(kind) and attempt < self.max_retries

    def delay(self, attempt: int) -> float:
        """Backoff sleep before retry ``attempt`` (1-based), jitter included."""
        base = min(self.backoff * 2 ** (attempt - 1), self.max_backoff)
        draw = self.rng.random() if self.rng is not None else random.random()
        return base * (1.0 + 0.25 * draw)


# ---------------------------------------------------------------------------
# Structured errors
# ---------------------------------------------------------------------------
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


class SimulationStalled(RuntimeError):
    """The watchdog detected no forward progress; carries a diagnosis."""

    def __init__(self, diagnosis: "StallDiagnosis"):
        self.diagnosis = diagnosis
        super().__init__(diagnosis.summary())


class InvariantViolation(AssertionError):
    """A flit/credit conservation invariant failed (simulator bug)."""


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

    def next_event_cycle(self) -> Optional[int]:
        """Earliest pending activation/deactivation cycle (None when done).

        Bounds the engine's idle-cycle fast-forward: a transient fault
        window must open and close on its exact cycles even if the fabric
        is empty when they arrive.
        """
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


# ---------------------------------------------------------------------------
# Stall watchdog
# ---------------------------------------------------------------------------
@dataclass
class BlockedVC:
    """One input VC whose ready head flit cannot move."""

    node: int
    in_port: int
    vc: int
    depth: int
    out_port: int  #: allocated output port (-1 if VC allocation failed)
    out_vc: int
    credits: Optional[int]  #: downstream credits on the allocated VC
    head_pid: int
    head_age: int
    faulted: bool = False  #: the allocated output port is currently faulted
    #: (node, in_port, vc) keys of the input VCs this one waits on: the
    #: downstream VC its credits come from, or — when VC allocation failed —
    #: the local input VCs holding every candidate output VC
    waits_on: list = field(default_factory=list)

    def describe(self) -> str:
        where = f"router {self.node} in_port {self.in_port} vc {self.vc}"
        if self.out_port < 0:
            return f"{where}: head pkt #{self.head_pid} (age {self.head_age}) awaiting VC allocation"
        state = "faulted port" if self.faulted else f"{self.credits} credits"
        return (
            f"{where}: head pkt #{self.head_pid} (age {self.head_age}) -> "
            f"out_port {self.out_port} vc {self.out_vc} ({state})"
        )


@dataclass
class StallDiagnosis:
    """Snapshot of a stalled network, attached to :class:`SimulationStalled`."""

    cycle: int
    window: int
    in_flight: int
    delivered_packets: int
    buffered_flits: int
    queued_packets: int
    blocked: list[BlockedVC] = field(default_factory=list)
    oldest_packet: Optional[dict] = None
    suspected_cycle: list[tuple[int, int, int]] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"no forward progress for {self.window} cycles at cycle "
            f"{self.cycle}: {self.in_flight} packets in flight, "
            f"{self.buffered_flits} flits buffered, {self.queued_packets} "
            f"packets queued at sources, {self.delivered_packets} delivered"
        ]
        if self.oldest_packet:
            p = self.oldest_packet
            lines.append(
                f"oldest in-flight packet #{p['pid']} {p['src']}->{p['dst']} "
                f"(age {p['age']}, at {p['location']})"
            )
        for b in self.blocked[:8]:
            lines.append("blocked: " + b.describe())
        if len(self.blocked) > 8:
            lines.append(f"... and {len(self.blocked) - 8} more blocked VCs")
        if self.suspected_cycle:
            chain = " -> ".join(
                f"(router {n}, port {p}, vc {v})" for n, p, v in self.suspected_cycle
            )
            lines.append(f"suspected wait cycle: {chain}")
        return "\n".join(lines)


def diagnose(net, *, window: int = 0) -> StallDiagnosis:
    """Build a :class:`StallDiagnosis` snapshot of ``net``.

    Works on any :class:`~repro.network.base.NetworkLike`; the per-VC
    detail (blocked VCs, credit counts, suspected wait cycle) is only
    available on backends that expose ``routers`` (the real network).
    """
    now = net.now
    queued = sum(len(q) for qs in getattr(net, "src_queues", ()) for q in qs)
    diag = StallDiagnosis(
        cycle=now,
        window=window,
        in_flight=net.in_flight,
        delivered_packets=net.total_packets_delivered,
        buffered_flits=net.buffered_flits(),
        queued_packets=queued,
    )
    routers = getattr(net, "routers", None)
    if routers is None:
        return diag
    num_vcs = net.config.num_vcs
    oldest = None
    oldest_loc = None
    for router in routers:
        fmask = router.fault_mask
        for idx in sorted(router.busy):
            ivc = router.ivcs[idx]
            if not ivc.fifo:
                continue
            pkt, _, ready = ivc.fifo[0]
            if oldest is None or pkt.create_time < oldest.create_time:
                oldest = pkt
                oldest_loc = f"router {router.node} port {ivc.in_port} vc {ivc.vc}"
            if ready > now:
                continue  # still in the router pipeline, not blocked
            op = ivc.out_port
            if op == router.local_port:
                continue  # ejection never blocks
            if op >= 0:
                credits = router.credits[op][ivc.out_vc]
                faulted = bool(fmask >> op & 1)
                if credits > 0 and not faulted:
                    continue  # eligible: lost arbitration, not blocked
                b = BlockedVC(
                    router.node, ivc.in_port, ivc.vc, len(ivc.fifo),
                    op, ivc.out_vc, credits,
                    pkt.pid, now - pkt.create_time, faulted,
                )
                # Credits return when the downstream input VC drains.
                ch = net.topology.channel(router.node, op)
                if ch is not None:
                    b.waits_on.append((ch.dst, ch.in_port, ivc.out_vc))
                diag.blocked.append(b)
            else:
                b = BlockedVC(
                    router.node, ivc.in_port, ivc.vc, len(ivc.fifo),
                    -1, -1, None, pkt.pid, now - pkt.create_time,
                )
                # VA failed: every candidate output VC is held by some
                # sibling input VC of this router; wait on each holder.
                for cand in ivc.candidates or ():
                    owners = router.vc_owner[cand.out_port]
                    if owners is None:
                        continue
                    for vc in cand.vcs:
                        holder = owners[vc]
                        if holder is not None:
                            key = (router.node, holder.in_port, holder.vc)
                            if key not in b.waits_on:
                                b.waits_on.append(key)
                diag.blocked.append(b)
    for qs in getattr(net, "src_queues", ()):
        for q in qs:
            if q and (oldest is None or q[0].create_time < oldest.create_time):
                oldest = q[0]
                oldest_loc = f"source queue of node {q[0].src}"
    if oldest is not None:
        diag.oldest_packet = {
            "pid": oldest.pid,
            "src": oldest.src,
            "dst": oldest.dst,
            "age": now - oldest.create_time,
            "location": oldest_loc,
        }
    diag.suspected_cycle = _wait_cycle(net, diag.blocked, num_vcs)
    return diag


def _wait_cycle(net, blocked: list[BlockedVC], num_vcs: int) -> list[tuple[int, int, int]]:
    """Find a cycle in the wait-for graph of the blocked VCs.

    Each blocked VC's ``waits_on`` edges point at the input VCs it needs
    drained: the downstream VC its credits come from, or (after a failed VC
    allocation) the local holders of its candidate output VCs.  A cycle in
    this graph restricted to blocked VCs is the deadlock's dependency loop;
    return it as ``(node, in_port, vc)`` triples.
    """
    by_key = {(b.node, b.in_port, b.vc): b for b in blocked}
    # Iterative DFS with the usual visiting/done coloring.
    done: set[tuple[int, int, int]] = set()
    for start in by_key:
        if start in done:
            continue
        chain: list[tuple[int, int, int]] = []
        on_chain: dict[tuple[int, int, int], int] = {}
        stack: list[tuple[tuple[int, int, int], int]] = [(start, 0)]
        while stack:
            key, edge = stack[-1]
            if edge == 0:
                on_chain[key] = len(chain)
                chain.append(key)
            edges = [k for k in by_key[key].waits_on if k in by_key]
            if edge < len(edges):
                stack[-1] = (key, edge + 1)
                nxt = edges[edge]
                if nxt in on_chain:
                    return chain[on_chain[nxt]:]
                if nxt not in done:
                    stack.append((nxt, 0))
            else:
                stack.pop()
                chain.pop()
                del on_chain[key]
                done.add(key)
    return []


class Watchdog:
    """Detects no-forward-progress runs and raises :class:`SimulationStalled`.

    Every ``window`` cycles it samples the network's monotone progress
    counters (flits delivered + link traversals + flits injected into the
    fabric).  If packets are in flight but the counters did not move over a
    whole window, the run is deadlocked (or livelocked at zero goodput) and
    cannot terminate on its own: the watchdog raises with a full
    :class:`StallDiagnosis` instead of burning the rest of ``max_cycles``.

    One instance may be reused across runs; the engine calls :meth:`begin`
    at the start of each run.  Per-cycle cost while armed is one integer
    comparison; a disabled run pays a single ``is None`` test.
    """

    def __init__(self, *, window: int = 1000):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._next_check = window
        self._last_sig: Optional[tuple[int, int]] = None

    def begin(self, net) -> None:
        self._next_check = net.now + self.window
        self._last_sig = None

    def on_cycle(self, net) -> None:
        if net.now < self._next_check:
            return
        self._next_check = net.now + self.window
        sig = (
            net.total_flits_delivered,
            net.total_flit_traversals + int(net.flit_injections.sum()),
        )
        if net.in_flight > 0 and sig == self._last_sig:
            raise SimulationStalled(diagnose(net, window=self.window))
        self._last_sig = sig

    def on_idle_gap(self, net, start: int, end: int) -> None:
        """Account fast-forwarded idle cycles ``[start, end)``.

        Fast-forward only happens with zero packets in flight, so no check
        inside the gap could raise; this replays their bookkeeping — the
        signature sample and the re-armed deadline — in O(1).  In the dense
        loop checks would fire at ``_next_check``, ``_next_check + window``,
        … up to the last observed clock value ``end``.
        """
        if end < self._next_check:
            return
        fired = (end - self._next_check) // self.window + 1
        self._next_check += fired * self.window
        self._last_sig = (
            net.total_flits_delivered,
            net.total_flit_traversals + int(net.flit_injections.sum()),
        )


# ---------------------------------------------------------------------------
# Conservation invariants
# ---------------------------------------------------------------------------
class InvariantChecker:
    """Asserts flit and credit conservation every ``interval`` cycles.

    * **Flit conservation** — every flit injected into the fabric is either
      ejected, buffered in a router, or in flight on a link.
    * **Credit conservation** — for every (channel, VC): upstream credits
      + downstream buffered flits + flits in flight on the link + credits
      in flight upstream equals the configured buffer depth.

    Violations raise :class:`InvariantViolation` naming the first bad
    quantity.  The deep per-channel audit needs the real network's
    internals; other backends get the counter-level checks only.
    """

    def __init__(self, *, interval: int = 256):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self._next_check = interval

    def begin(self, net) -> None:
        self._next_check = net.now + self.interval

    def on_cycle(self, net) -> None:
        if net.now < self._next_check:
            return
        self._next_check = net.now + self.interval
        self.check(net)

    def on_idle_gap(self, net, start: int, end: int) -> None:
        """Account fast-forwarded idle cycles ``[start, end)``.

        Network state is frozen across the gap, so the audits the dense
        loop would have run at each elapsed deadline are all the same
        audit: run it once, then re-arm the deadline where the dense loop
        would have left it.
        """
        if end < self._next_check:
            return
        fired = (end - self._next_check) // self.interval + 1
        self._next_check += fired * self.interval
        self.check(net)

    def check(self, net) -> None:
        """Run all applicable invariant checks against ``net`` right now."""
        delivered = net.total_flits_delivered
        ejected = int(net.flit_ejections.sum())
        if delivered != ejected:
            raise InvariantViolation(
                f"cycle {net.now}: total_flits_delivered={delivered} but "
                f"per-node ejections sum to {ejected}"
            )
        if net.in_flight < 0:
            raise InvariantViolation(f"cycle {net.now}: in_flight={net.in_flight} < 0")
        routers = getattr(net, "routers", None)
        if routers is None:
            return
        injected = int(net.flit_injections.sum())
        buffered = net.buffered_flits()
        on_links = sum(len(bucket) for bucket in net._arrivals.values())
        if injected != ejected + buffered + on_links:
            raise InvariantViolation(
                f"cycle {net.now}: flit conservation broken — injected "
                f"{injected} != ejected {ejected} + buffered {buffered} + "
                f"on-links {on_links}"
            )
        self._check_credits(net, routers)

    def _check_credits(self, net, routers) -> None:
        cfg = net.config
        num_vcs = cfg.num_vcs
        buf_size = cfg.vc_buffer_size
        # Flits in flight per (dst, in_port, vc) and credits in flight per
        # (id of the upstream credit list, vc).
        arrivals: dict[tuple[int, int, int], int] = {}
        for bucket in net._arrivals.values():
            for ivc, _pkt, _fidx in bucket:
                key = (ivc.node, ivc.in_port, ivc.vc)
                arrivals[key] = arrivals.get(key, 0) + 1
        credits_in_flight: dict[tuple[int, int], int] = {}
        for bucket in net._credits.values():
            for creds, vc in bucket:
                key = (id(creds), vc)
                credits_in_flight[key] = credits_in_flight.get(key, 0) + 1
        for ch in net.topology.channels():
            upstream = routers[ch.src]
            downstream = routers[ch.dst]
            creds = upstream.credits[ch.out_port]
            for vc in range(num_vcs):
                held = creds[vc]
                buffered = len(downstream.ivcs[ch.in_port * num_vcs + vc].fifo)
                flying = arrivals.get((ch.dst, ch.in_port, vc), 0)
                returning = credits_in_flight.get((id(creds), vc), 0)
                total = held + buffered + flying + returning
                if total != buf_size:
                    raise InvariantViolation(
                        f"cycle {net.now}: credit conservation broken on "
                        f"channel {ch.src}:{ch.out_port}->{ch.dst}:{ch.in_port} "
                        f"vc {vc} — credits {held} + buffered {buffered} + "
                        f"in-flight {flying} + returning {returning} = {total} "
                        f"!= buffer depth {buf_size}"
                    )
