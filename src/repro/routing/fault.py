"""Fault-aware routing fallback.

:class:`FaultAwareRouting` wraps any base routing algorithm when the network
carries an active :class:`~repro.core.resilience.FaultPlan`.  Per hop it:

1. asks the base algorithm for its candidates and keeps those that leave
   through a healthy channel *and* land strictly closer to the target in
   the fault-aware metric — BFS hop distance over the non-faulted graph
   (:meth:`FaultState.distances_to`, cached per fault version);
2. if nothing survives, *detours*: every healthy port whose landing node
   strictly reduces the fault-aware distance is offered (any VC) and the
   packet's ``misroutes`` counter ticks.

Routing strictly downhill on the faulted-graph metric is what makes the
fallback sound: a naive "go around and retry DOR" oscillates forever on a
mesh (x-first DOR sends the packet straight back toward a dead vertical
link, a livelock the watchdog duly reports), whereas the BFS metric already
prices the blockage in, so detours commit to the path that actually clears
the fault region and every hop makes progress.  ``misroute_limit`` stays as
a hard livelock bound for *flapping* transient faults, where the metric
changes between hops and monotonicity no longer holds; a packet over the
limit holds its VC until the next fault-set change re-routes it.

At injection, an unreachable destination raises a structured
:class:`~repro.core.resilience.UnreachableDestination` instead of letting
the packet wander (the network asks :meth:`FaultState.admit`, which knows
the fault set but not the clock).

Deadlock freedom is deliberately **not** preserved under detours: a route
around a dead link can close a channel-dependency cycle that the base
algorithm's VC discipline (dateline classes, Duato escape VCs) was built to
exclude.  Fault-tolerant routing that provably stays deadlock-free needs
topology-specific machinery out of scope here; instead the engine watchdog
converts any resulting deadlock into a :class:`SimulationStalled` diagnosis.
"""

from __future__ import annotations

from ..core.resilience import FaultState
from ..network.packet import Packet
from .base import RouteCandidate, RoutingAlgorithm

__all__ = ["FaultAwareRouting"]

#: returned when a packet has no admissible hop left: the router retries
#: after the next fault-set change (empty list, shared — never mutated)
_HOLD: list = []


class FaultAwareRouting(RoutingAlgorithm):
    """Wrap ``base`` with fault filtering, detours, and misroute fallback."""

    name = "fault-aware"

    def __init__(
        self,
        base: RoutingAlgorithm,
        faults: FaultState,
        *,
        misroute_limit: int | None = None,
    ):
        super().__init__(base.topology, base.num_vcs)
        self.base = base
        self.faults = faults
        if misroute_limit is None:
            topo = base.topology
            diameter = max(
                topo.min_hops(0, node) for node in range(topo.num_nodes)
            )
            misroute_limit = 8 + 4 * diameter
        self.misroute_limit = misroute_limit
        # One shared candidate per network port for detour/misroute hops;
        # detours may use any VC (see module docstring on deadlock freedom).
        self._port_cands = [
            RouteCandidate(port, self.all_vcs)
            for port in range(base.topology.num_network_ports)
        ]

    def on_inject(self, packet: Packet) -> None:
        self.base.on_inject(packet)

    def route(self, node: int, packet: Packet) -> list[RouteCandidate]:
        cands = self.base.route(node, packet)
        fs = self.faults
        active = fs.active
        if not active:
            return cands
        topo = self.topology
        local = topo.local_port
        # current_target() is read *after* the base call so any phase
        # advance (VAL/ROMM at their intermediate) is already applied.
        dist = fs.distances_to(packet.current_target())
        here = dist[node]
        survivors = []
        for c in cands:
            if c.out_port == local:
                return cands  # arrived: ejection is never faulted
            if (node, c.out_port) in active:
                continue
            if dist[topo.channel(node, c.out_port).dst] < here:
                survivors.append(c)
        if survivors:
            return survivors
        return self._detour(node, packet, active, dist, here)

    def _detour(
        self, node: int, packet: Packet, active, dist, here
    ) -> list[RouteCandidate]:
        """No base candidate makes progress: go around the failure."""
        if packet.misroutes >= self.misroute_limit:
            return _HOLD  # livelock bound under flapping transient faults
        out: list[RouteCandidate] = []
        topo = self.topology
        for port in range(topo.num_network_ports):
            if (node, port) in active:
                continue
            ch = topo.channel(node, port)
            if ch is not None and dist[ch.dst] < here:
                out.append(self._port_cands[port])
        if not out:
            return _HOLD  # cut off (here is UNREACHABLE); wait for a heal
        packet.misroutes += 1
        return out
