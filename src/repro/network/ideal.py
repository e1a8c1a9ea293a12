"""Ideal network: fully connected, infinite bandwidth, fixed 1-cycle latency.

The paper defines the network access rate (NAR) of an application as its
injection rate "under an ideal on-chip network ... a fully connected network
with infinite bandwidth between the nodes and single cycle latency"
(§IV-C1).  This class implements that reference network with the same driver
API (:class:`repro.network.base.NetworkLike`) as
:class:`repro.network.network.Network`, so any workload driver can be
pointed at it unchanged to measure NAR or ideal cycle counts (Table III).
"""

from __future__ import annotations

from .base import BaseNetwork
from .links import TimeBuckets
from .packet import Packet

__all__ = ["IdealNetwork"]


class IdealNetwork(BaseNetwork):
    """Driver-compatible ideal network on ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int, *, latency: int = 1):
        if latency < 1:
            raise ValueError("latency must be >= 1")
        super().__init__(num_nodes)
        self.latency = latency
        self._events = TimeBuckets()

    def offer(self, packet: Packet) -> None:
        """Inject immediately; delivery after the fixed latency."""
        packet.inject_time = self.now
        self.flit_injections[packet.src] += packet.size
        self._events.schedule(self.now + self.latency, packet)
        self._inflight += 1

    def step(self) -> list[Packet]:
        """Advance one cycle; return packets delivered during it."""
        now = self.now
        delivered: list[Packet] = []
        bucket = self._events.pop(now)
        if bucket is not None:
            for pkt in bucket:
                pkt.deliver_time = now
                pkt.hops = 0 if pkt.src == pkt.dst else 1
                self.flit_ejections[pkt.dst] += pkt.size
                self.total_flits_delivered += pkt.size
                self.total_packets_delivered += 1
                self._inflight -= 1
                delivered.append(pkt)
        self.now = now + 1
        return delivered
