"""Cycle-level input-queued virtual-channel router.

Pipeline model: a flit arriving at cycle ``t`` is eligible for switch
allocation at ``t + tr`` (``tr`` = the paper's router delay), so the per-hop
cost is ``tr + link_delay`` — which reproduces the paper's observation that
raising tr from 1 to 2/4 scales zero-load latency by exactly 1.5×/2.5× on a
1-cycle-link mesh.

Per cycle, for each input VC whose head flit has cleared the pipeline:

1. **RC** — head flits compute their route candidates once per hop: one
   index into the node's static route row where the routing algorithm
   offers one (see :class:`~repro.routing.base.RoutingAlgorithm`), a
   ``route()`` call otherwise.
2. **VA** — the head flit claims a downstream VC: among candidate
   (port, VC-class) options it takes the free VC with the most credits
   (this is what makes MA adaptive); escape candidates are tried only if no
   adaptive VC is free.  Allocation is non-atomic: a VC whose previous
   packet's tail has departed upstream may be re-claimed while its buffer
   drains, as in Garnet.
3. **SA** — input VCs with an allocated VC and downstream credit (ejection
   needs neither) request the switch; one arbiter per output port
   (round-robin, age-based, or strict priority — the packet's
   ``traffic_class`` rides through the VC buffers to here)
   picks winners, under one-flit-per-input-port and
   one-flit-per-output-port crossbar constraints.
4. **ST** — winners traverse, inside the grant loop: credits decrement, the
   freed input-buffer slot returns a credit upstream, tail flits release
   the VC, and the flit is filed against the downstream input VC in the
   network's delivery-cycle bucket.

Flits and credits in flight live in the owning :class:`Network`'s per-cycle
buckets, so routers never observe partially-updated same-cycle state.  A
router holds no reference to its network: :meth:`Router.step` is handed it
per call, so a network is freed by reference counting when its run ends.
``wake`` is the earliest cycle at which a head flit of this router can be
ready — ``now + 1`` whenever a ready head was blocked or lost arbitration,
so whatever unblocks it finds the router awake; the network skips the
router on earlier cycles (DESIGN.md 5e).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Optional

from ..routing.base import RoutingAlgorithm
from .arbiters import build_arbiter
from .vc import InputVC

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.base import Topology
    from .network import Network

__all__ = ["Router"]

#: ``wake`` of a router holding no flits: later than any cycle
_IDLE = sys.maxsize


class Router:
    """One router of the network; owned and stepped by :class:`Network`."""

    __slots__ = (
        "node",
        "routing",
        "row",
        "num_vcs",
        "local_port",
        "num_ports",
        "ivcs",
        "busy",
        "wake",
        "credits",
        "vc_owner",
        "out_channels",
        "down",
        "arbiters",
        "_reqs",
        "_sparse",
    )

    def __init__(
        self,
        node: int,
        topo: "Topology",
        routing: RoutingAlgorithm,
        *,
        num_vcs: int,
        buf_size: int,
        arbitration: str,
    ):
        self.node = node
        self.routing = routing
        #: static route row, fetched at the first RC if the routing offers one
        self.row: Optional[list] = None
        self.num_vcs = num_vcs
        self.local_port = topo.local_port
        self.num_ports = topo.ports_per_router
        nivcs = self.num_ports * num_vcs
        self.ivcs = [
            InputVC(i, i // num_vcs, i % num_vcs, node) for i in range(nivcs)
        ]
        #: indices of input VCs with a non-empty FIFO
        self.busy: set[int] = set()
        self.wake = _IDLE
        # Per output port: channel (None for missing ports and the ejection
        # port), downstream credits, downstream-VC ownership, the
        # downstream router's input VCs (wired by the network), arbiter.
        self.out_channels = [
            topo.channel(node, p) if p != self.local_port else None
            for p in range(self.num_ports)
        ]
        self.credits = [
            [buf_size] * num_vcs if self.out_channels[p] is not None else None
            for p in range(self.num_ports)
        ]
        self.vc_owner = [
            [None] * num_vcs if self.out_channels[p] is not None else None
            for p in range(self.num_ports)
        ]
        self.down: list = [None] * self.num_ports
        self.arbiters = [build_arbiter(arbitration, nivcs) for _ in range(self.num_ports)]
        self._reqs: list[list] = [[] for _ in range(self.num_ports)]
        # At or below this many occupied input VCs, sorting the busy set
        # is cheaper than scanning every VC for a non-empty FIFO.
        self._sparse = nivcs // 4

    # -- VC allocation -------------------------------------------------------
    def _try_alloc(self, ivc: InputVC) -> bool:
        """Attempt VC allocation for the routed head flit in ``ivc``: the
        free VC with the most credits among the adaptive candidates, among
        the escape candidates only when no adaptive VC is free."""
        local = self.local_port
        best_port = best_vc = best_credit = -1
        for escape in (False, True):
            for cand in ivc.candidates:
                op = cand.out_port
                if op == local:
                    ivc.out_port = local
                    ivc.candidates = None
                    return True
                if cand.escape != escape:
                    continue  # the other pass's candidate
                owners = self.vc_owner[op]
                creds = self.credits[op]
                for vc in cand.vcs:
                    if owners[vc] is None and creds[vc] > best_credit:
                        best_credit = creds[vc]
                        best_port = op
                        best_vc = vc
            if best_port >= 0:
                ivc.out_port = best_port
                ivc.out_vc = best_vc
                ivc.candidates = None
                self.vc_owner[best_port][best_vc] = ivc
                return True
        return False

    # -- main per-cycle work --------------------------------------------------
    def step(self, now: int, net: "Network") -> None:
        """RC + VA + SA + ST for this router of ``net`` at cycle ``now``;
        sets ``wake``."""
        ivcs = self.ivcs
        busy = self.busy
        reqs = self._reqs
        local = self.local_port
        credits = self.credits
        nxt = now + 1
        wake = _IDLE
        active_ports = []
        # RC / VA / SA-request gathering over the occupied input VCs in
        # ascending index order, which is the order every arbiter sees its
        # requests in.
        scan: Iterable[InputVC] = (
            map(ivcs.__getitem__, sorted(busy)) if len(busy) <= self._sparse else ivcs
        )
        for ivc in scan:
            fifo = ivc.fifo
            if not fifo:
                continue
            head = fifo[0]
            ready = head[2]
            if ready > now:
                if ready < wake:
                    wake = ready
                continue
            op = ivc.out_port
            if op < 0:
                cands = ivc.candidates
                if cands is None:
                    # RC: head flits compute their candidates once per hop.
                    row = self.row
                    if row is None and self.routing.static_rows:
                        row = self.row = self.routing.static_row(self.node)
                    if row is not None:
                        cands = row[head[0].dst]
                    else:
                        cands = self.routing.route(self.node, head[0])
                    ivc.candidates = cands
                if len(cands) != 1:
                    if not self._try_alloc(ivc):
                        wake = nxt
                        continue
                    op = ivc.out_port
                else:
                    # VA with one candidate — every deterministic hop — is
                    # _try_alloc's first pass alone.
                    cand = cands[0]
                    op = cand.out_port
                    if op != local:
                        owners = self.vc_owner[op]
                        creds = credits[op]
                        best_vc = best_credit = -1
                        for vc in cand.vcs:
                            if owners[vc] is None and creds[vc] > best_credit:
                                best_credit = creds[vc]
                                best_vc = vc
                        if best_vc < 0:
                            wake = nxt
                            continue
                        owners[best_vc] = ivc
                        ivc.out_vc = best_vc
                    ivc.out_port = op
                    ivc.candidates = None
            if op != local and credits[op][ivc.out_vc] <= 0:
                wake = nxt
                continue
            requests = reqs[op]
            if not requests:
                active_ports.append(op)
            requests.append((ivc.index, head[0]))
        if not active_ports:
            self.wake = wake
            return
        # SA arbitration with ST fused into the grant: one winner per
        # output port, one grant per input port per cycle.
        used_inputs = 0  # bitmask over input ports
        sent = 0
        arbiters = self.arbiters
        arrivals = net._arrivals
        credit_out = net._credit_out
        for op in active_ports:
            requests = reqs[op]
            if len(requests) > 1:
                wake = nxt  # all but one of them wait
            while requests:
                winner = requests[0] if len(requests) == 1 else arbiters[op].pick(requests)
                ivc = ivcs[winner[0]]
                in_port_bit = 1 << ivc.in_port
                if used_inputs & in_port_bit:
                    requests.remove(winner)
                    wake = nxt
                    continue
                used_inputs |= in_port_bit
                fifo = ivc.fifo
                pkt, fidx, _ = fifo.pop(0)
                if fifo:
                    ready = fifo[0][2]
                    if ready < wake:
                        wake = ready
                else:
                    busy.discard(winner[0])
                credit = ivc.upstream
                if credit is not None:
                    # The freed buffer slot returns one credit upstream.
                    if credit_out is None:
                        creds, vc = credit
                        creds[vc] += 1
                    else:
                        credit_out.append(credit)
                is_tail = fidx == pkt.size - 1
                if op == local:
                    net.flit_ejections[self.node] += 1
                    net.total_flits_delivered += 1
                    if is_tail:
                        pkt.deliver_time = now
                        ivc.out_port = -1
                        net._delivered.append(pkt)
                else:
                    ovc = ivc.out_vc
                    credits[op][ovc] -= 1
                    if fidx == 0:
                        pkt.hops += 1
                    ch = self.out_channels[op]
                    due = now + ch.delay
                    bucket = arrivals.get(due)
                    if bucket is None:
                        arrivals[due] = [(self.down[op][ovc], pkt, fidx)]
                    else:
                        bucket.append((self.down[op][ovc], pkt, fidx))
                    sent += 1
                    if is_tail:
                        self.vc_owner[op][ovc] = None
                        ivc.out_port = ivc.out_vc = -1
                break
            requests.clear()
        if sent:
            net.total_flit_traversals += sent
        self.wake = wake if wake > nxt else nxt

    # -- introspection ---------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits currently buffered in this router."""
        return sum(len(ivc.fifo) for ivc in self.ivcs)
