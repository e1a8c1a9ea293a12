"""Run health: the stall watchdog, its diagnosis, and conservation invariants.

Long closed-loop and execution-driven runs are only trustworthy if a
mis-tuned configuration cannot silently spin to ``max_cycles``.  Both
checks are engine observers (:class:`repro.core.engine.Observer`):

* :class:`Watchdog` samples the network's forward-progress counters every
  ``window`` cycles and raises :class:`SimulationStalled` (carrying a
  :class:`StallDiagnosis`: blocked VCs, credit counts, oldest in-flight
  packet, suspected wait cycle) when flits are in flight but nothing has
  moved for a full window.
* :class:`InvariantChecker` asserts flit conservation (injected == ejected
  + buffered + on-links) and per-channel credit conservation each window,
  raising :class:`InvariantViolation` on the first discrepancy.

The sweep executor and the CLI import :class:`SimulationStalled` in
control-plane processes, so this module imports neither numpy nor the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SimulationStalled",
    "StallDiagnosis",
    "BlockedVC",
    "Watchdog",
    "InvariantViolation",
    "InvariantChecker",
]


class SimulationStalled(RuntimeError):
    """The watchdog detected no forward progress; carries a diagnosis."""

    def __init__(self, diagnosis: "StallDiagnosis"):
        self.diagnosis = diagnosis
        super().__init__(diagnosis.summary())


class InvariantViolation(AssertionError):
    """A flit/credit conservation invariant failed (simulator bug)."""



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
    #: (node, in_port, vc) keys of the input VCs this one waits on: the
    #: downstream VC its credits come from, or — when VC allocation failed —
    #: the local input VCs holding every candidate output VC
    waits_on: list = field(default_factory=list)

    def describe(self) -> str:
        where = f"router {self.node} in_port {self.in_port} vc {self.vc}"
        if self.out_port < 0:
            return f"{where}: head pkt #{self.head_pid} (age {self.head_age}) awaiting VC allocation"
        return (
            f"{where}: head pkt #{self.head_pid} (age {self.head_age}) -> "
            f"out_port {self.out_port} vc {self.out_vc} ({self.credits} credits)"
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
                if credits > 0:
                    continue  # eligible: lost arbitration, not blocked
                b = BlockedVC(
                    router.node, ivc.in_port, ivc.vc, len(ivc.fifo),
                    op, ivc.out_vc, credits, pkt.pid, now - pkt.create_time,
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

    An engine observer; one instance may be reused across runs, since the
    engine calls :meth:`begin` at the start of each.  Per-cycle cost while
    armed is one integer comparison.
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

    def on_cycle(self, net, now: int, delivered: list) -> None:
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

    def finish(self, net) -> None:
        pass


# ---------------------------------------------------------------------------
# Conservation invariants
# ---------------------------------------------------------------------------
class InvariantChecker:
    """Asserts flit and credit conservation every ``interval`` cycles and
    once more when the run ends, so a short run and a long run's last
    partial interval are audited too.

    * **Flit conservation** — every flit injected into the fabric is either
      ejected, buffered in a router, or in flight on a link.
    * **Credit conservation** — for every (channel, VC): upstream credits
      + downstream buffered flits + flits in flight on the link + credits
      in flight upstream equals the configured buffer depth.

    Violations raise :class:`InvariantViolation` naming the first bad
    quantity.  The deep per-channel audit needs the real network's
    internals; other backends get the counter-level checks only.  An engine
    observer, like :class:`Watchdog`.
    """

    def __init__(self, *, interval: int = 256):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self._next_check = interval

    def begin(self, net) -> None:
        self._next_check = net.now + self.interval

    def on_cycle(self, net, now: int, delivered: list) -> None:
        if net.now < self._next_check:
            return
        self._next_check = net.now + self.interval
        self.check(net)

    def finish(self, net) -> None:
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
