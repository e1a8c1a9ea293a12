"""Network assembly and the cycle loop.

:class:`Network` owns the routers, the per-node source queues, and the two
delayed-event streams (flit arrivals over links, credits returning
upstream).  External drivers — open-loop, closed-loop, or the
execution-driven CMP — interact through three calls:

* :meth:`offer` — hand a packet to its source node's (infinite) queue,
* :meth:`step` — advance one cycle; returns the packets whose tail flit was
  ejected this cycle,
* :meth:`is_idle` — True when no packet is queued or in flight (drain done).

Flits on links and credits returning upstream sit in per-delivery-cycle
buckets (``_arrivals[cycle]``, ``_credits[cycle]``) that routers append to
during switch traversal; a flit enters the downstream FIFO only when
:meth:`step` unpacks its cycle's bucket.

Injection bandwidth is one flit per node per cycle: each node streams its
current packet into the injection-port VC with the most free space, whole
packets at a time, and stalls on backpressure — which is exactly the
feedback path that differentiates closed-loop from open-loop measurement.

Under class-aware arbitration (``priority``, ``weighted``) source queues are
per traffic class: ``src_queues[node][cls]`` is a FIFO, and each node picks
its next packet by walking the classes in descending priority, so a
high-priority packet bypasses a lower-priority backlog at the source.
Preemption happens only at packet boundaries — a packet that has started
streaming finishes first.  Under ``round_robin`` and ``age`` a node has one
FIFO and its packets leave in offer order
(:func:`~repro.classes.source_queue_order`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..classes import source_queue_order
from ..config import NetworkConfig
from ..routing.base import RoutingAlgorithm
from ..routing.registry import build_routing
from ..topology.base import Topology
from ..topology.registry import build_topology
from .base import BaseNetwork
from .packet import Packet
from .router import Router

__all__ = ["Network"]


class Network(BaseNetwork):
    """A cycle-level NoC built from a :class:`NetworkConfig`."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        topology: Optional[Topology] = None,
        routing: Optional[RoutingAlgorithm] = None,
    ):
        self.config = config
        self.topology = topology if topology is not None else build_topology(config)
        self.routing = routing if routing is not None else build_routing(config, self.topology)
        n = self.topology.num_nodes
        super().__init__(n)
        num_vcs = config.num_vcs
        self.routers = [
            Router(
                node,
                self.topology,
                self.routing,
                num_vcs=num_vcs,
                buf_size=config.vc_buffer_size,
                arbitration=config.arbitration,
                classes=config.classes,
            )
            for node in range(n)
        ]
        # Wire each channel once: the upstream router learns the input VCs
        # its flits land in, and each of those learns the credit event it
        # returns — the upstream credit counters of that channel, never the
        # router, so no component refers back to its owner.  Injection-port
        # VCs keep ``upstream = None``: the source checks their buffer.
        for ch in self.topology.channels():
            upstream = self.routers[ch.src]
            base = ch.in_port * num_vcs
            landing = self.routers[ch.dst].ivcs[base : base + num_vcs]
            upstream.down[ch.out_port] = landing
            creds = upstream.credits[ch.out_port]
            for vc, ivc in enumerate(landing):
                ivc.upstream = (creds, vc)
        #: delivery cycle -> [(input VC, packet, flit index)] / [credit event]
        self._arrivals: dict[int, list] = {}
        self._credits: dict[int, list] = {}
        #: credits returned during the current cycle (None: credit_delay is
        #: 0 and routers apply them on the spot)
        self._credit_out: Optional[list] = None
        self._credit_delay = config.credit_delay
        self._router_delay = config.router_delay
        self._inject_order = source_queue_order(config.classes, config.arbitration)
        self._num_queues = len(self._inject_order)
        self.src_queues: list[list[deque]] = [
            [deque() for _ in range(self._num_queues)] for _ in range(n)
        ]
        self._inj_state: list[Optional[list]] = [None] * n
        self._active_sources: set[int] = set()
        # Active-set scheduling: only routers holding buffered flits are
        # candidates for a step.  A router enters the set when a flit is
        # buffered into an empty input VC and leaves when its last buffer
        # drains; among those, only routers whose ``wake`` cycle has come
        # are stepped (see DESIGN.md 5e).
        self._active_routers: set[int] = set()

    # -- driver API -----------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Queue ``packet`` at its source node (infinite source queue)."""
        self.routing.on_inject(packet)
        c = packet.traffic_class
        if c >= self._num_queues:
            c = self._num_queues - 1
        self.src_queues[packet.src][c].append(packet)
        self._active_sources.add(packet.src)
        self._inflight += 1

    def step(self) -> list[Packet]:
        """Advance one cycle; return packets delivered during it."""
        now = self.now
        delivered = self._delivered = []
        routers = self.routers
        active = self._active_routers
        # 1. Credits land (usable this cycle).
        bucket = self._credits.pop(now, None)
        if bucket is not None:
            for creds, vc in bucket:
                creds[vc] += 1
        # 2. Link arrivals buffer into downstream input VCs.
        bucket = self._arrivals.pop(now, None)
        if bucket is not None:
            ready = now + self._router_delay
            for ivc, pkt, fidx in bucket:
                fifo = ivc.fifo
                if not fifo:
                    router = routers[ivc.node]
                    router.busy.add(ivc.index)
                    active.add(router.node)
                    if ready < router.wake:
                        router.wake = ready
                fifo.append((pkt, fidx, ready))
        # 3. Sources stream flits into injection ports (1 flit/node/cycle).
        if self._active_sources:
            self._inject_all(now)
        # 4. Routers allocate and traverse.  Only routers holding a head
        #    flit that has cleared its pipeline can do work; ascending node
        #    order is load-bearing when credit_delay == 0 (same-cycle credit
        #    returns are visible to higher-numbered routers), so the active
        #    set is sorted.
        if active:
            if self._credit_delay:
                credit_out = self._credit_out = []
            else:
                credit_out = None
            for node in sorted(active):
                router = routers[node]
                if router.wake <= now:
                    router.step(now, self)
                    if not router.busy:
                        active.discard(node)
            if credit_out:
                self._credits[now + self._credit_delay] = credit_out
            if delivered:
                self.total_packets_delivered += len(delivered)
                self._inflight -= len(delivered)
        self.now = now + 1
        return delivered

    def buffered_flits(self) -> int:
        """Flits currently buffered across all routers (diagnostics)."""
        return sum(r.buffered_flits() for r in self.routers)

    # -- probe support ----------------------------------------------------------
    def probe_channels(self):
        """The topology's directed channels (per-link probe domain)."""
        return self.topology.channels()

    def probe_vc_occupancy(self, out=None) -> np.ndarray:
        """Per-node maximum single-VC buffer occupancy (flits).

        A sampled snapshot for the VC-occupancy probe; by construction no
        entry can exceed ``config.vc_buffer_size``.
        """
        if out is None:
            out = np.zeros(self.num_nodes, dtype=np.int64)
        for node, router in enumerate(self.routers):
            worst = 0
            for ivc in router.ivcs:
                depth = len(ivc.fifo)
                if depth > worst:
                    worst = depth
            out[node] = worst
        return out

    # -- internals --------------------------------------------------------------
    def _inject_all(self, now: int) -> None:
        buf_size = self.config.vc_buffer_size
        num_vcs = self.config.num_vcs
        ready = now + self._router_delay
        routers = self.routers
        inj_state = self._inj_state
        src_queues = self.src_queues
        flit_injections = self.flit_injections
        done: list[int] = []
        for node in self._active_sources:
            st = inj_state[node]
            router = routers[node]
            if st is None:
                # A source is active only while it holds a queued packet,
                # and only it appends to its injection VCs, each packet's
                # tail before the next packet's head: a selecting source
                # always finds a packet, and every injection VC ends on a
                # tail.
                queues = src_queues[node]
                for cls in self._inject_order:
                    if queues[cls]:
                        pkt = queues[cls][0]
                        break
                # Choose the injection VC with most free space; whole
                # packets stream into a single VC.
                base = router.local_port * num_vcs
                best = None
                best_free = 0
                for ivc in router.ivcs[base : base + num_vcs]:
                    free = buf_size - len(ivc.fifo)
                    if free > best_free:
                        best_free = free
                        best = ivc
                if best is None:
                    self.injection_stalls += 1
                    continue  # all VCs full or busy: injection backpressure
                st = inj_state[node] = [pkt, 0, best, cls]
            pkt, fidx, ivc, cls = st
            fifo = ivc.fifo
            if len(fifo) >= buf_size:
                self.injection_stalls += 1
                continue
            if fidx == 0:
                pkt.inject_time = now
            if not fifo:
                router.busy.add(ivc.index)
                self._active_routers.add(node)
                if ready < router.wake:
                    router.wake = ready
            fifo.append((pkt, fidx, ready))
            flit_injections[node] += 1
            fidx += 1
            if fidx == pkt.size:
                src_queues[node][cls].popleft()
                inj_state[node] = None
                if not any(src_queues[node]):
                    done.append(node)
            else:
                st[1] = fidx
        for node in done:
            self._active_sources.discard(node)
