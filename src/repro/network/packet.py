"""Packet representation.

Packets are the unit of routing and measurement; flits are the unit of flow
control.  To avoid per-flit object churn in the hot loop, flits are *not*
objects — a buffered flit is the tuple ``(packet, flit_index, ready_time)``
and the packet carries everything a flit needs (size, routing state, age).

Routing state lives on the packet because wormhole routing computes the
route once per hop for the head flit only:

* ``phase`` / ``intermediate`` — two-phase algorithms (VAL, ROMM),
* ``vc_class`` — dateline discipline on rings/tori,
* ``route_dim`` — the dimension DOR is currently traversing (dateline reset).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Packet"]


class Packet:
    """A network packet of ``size`` flits from ``src`` to ``dst``.

    ``create_time`` is when the source *generated* the packet (open-loop
    latency includes source-queue time, per Dally & Towles); ``inject_time``
    is when the head flit entered the injection port; ``deliver_time`` is
    when the tail flit was ejected at the destination.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "create_time",
        "inject_time",
        "deliver_time",
        "is_reply",
        "traffic_class",
        "measured",
        "phase",
        "intermediate",
        "vc_class",
        "route_dim",
        "hops",
        "meta",
    )

    def __init__(
        self,
        pid: int,
        src: int,
        dst: int,
        size: int,
        create_time: int,
        *,
        is_reply: bool = False,
        traffic_class: int = 0,
        measured: bool = True,
        meta: Any = None,
    ):
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size = size
        self.create_time = create_time
        self.inject_time: int = -1
        self.deliver_time: int = -1
        self.is_reply = is_reply
        self.traffic_class = traffic_class
        self.measured = measured
        # routing state
        self.phase: int = 0
        self.intermediate: Optional[int] = None
        self.vc_class: int = 0
        self.route_dim: int = -1
        self.hops: int = 0
        self.meta = meta

    @property
    def latency(self) -> int:
        """Creation-to-delivery latency; valid only after delivery."""
        if self.deliver_time < 0:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.deliver_time - self.create_time

    @property
    def network_latency(self) -> int:
        """Injection-to-delivery latency (excludes source-queue time)."""
        if self.deliver_time < 0 or self.inject_time < 0:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.deliver_time - self.inject_time

    def current_target(self) -> int:
        """Routing target for the current phase (intermediate, then dst)."""
        if self.phase == 0 and self.intermediate is not None:
            return self.intermediate
        return self.dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pid} {self.src}->{self.dst} size={self.size}"
            f" t={self.create_time}{' reply' if self.is_reply else ''})"
        )
