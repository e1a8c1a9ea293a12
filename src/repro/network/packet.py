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

A packet's ``traffic_class`` is one of the paper's two classes: user
requests (:data:`USER`) or the §V OS model's kernel traffic (:data:`OS`).
Under ``arbitration="priority"`` kernel packets outrank user packets at the
source queue and at every switch; round-robin and age arbitration ignore
the class.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Packet", "USER", "OS", "source_queue_order"]

#: Traffic class of user (application) requests.
USER = 0
#: Traffic class of the OS model's kernel requests (paper §V).
OS = 1


def source_queue_order(arbitration: str) -> tuple[int, ...]:
    """A node's source queues, by index, in the order the node drains them.

    Under ``priority`` a node keeps one FIFO per class and serves the OS
    FIFO first, so a kernel packet bypasses a user backlog at a packet
    boundary.  Under ``round_robin`` and ``age`` it keeps one FIFO and its
    packets leave in offer order whatever their class, as in the
    execution-driven CMP.  A class beyond the last queue shares it.
    """
    return (OS, USER) if arbitration == "priority" else (USER,)


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
        traffic_class: int = USER,
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pid} {self.src}->{self.dst} size={self.size}"
            f" t={self.create_time}{' reply' if self.is_reply else ''})"
        )
