"""Input virtual-channel state.

Each router input port owns ``num_vcs`` of these.  The FIFO holds buffered
flits as ``(packet, flit_index, ready_time)`` tuples; ``ready_time`` is the
cycle at which the flit has cleared the router pipeline (arrival + tr) and
may traverse the switch.  The packet reference carries its
``traffic_class`` through the buffer, so VC allocation and the class-aware
switch arbiters (priority/weighted) read the class straight off the
buffered head flit — flits need no separate class field.

The VC's routing state machine is encoded compactly:

* ``out_port == -1`` and ``candidates is None`` — idle / not yet routed,
* ``candidates is not None``                    — routed, waiting for VC
  allocation downstream (retried every cycle),
* ``out_port >= 0``                             — allocated; ``out_vc`` is
  the downstream VC, or ``-1`` when the output is the ejection port.

``node`` and ``upstream`` are wiring, fixed at network build: the owning
router's node id (a link arrival is filed against the input VC itself and
finds its router by index), and the prebuilt credit event ``(credit list,
vc)`` this buffer returns each time a flit leaves it — the upstream
router's per-VC credit counters for the channel feeding this port, so a
returning credit is ``creds[vc] += 1``.  It is ``None`` on the injection
port, whose buffer the source checks directly.  Neither refers back to a
router, so a network's object graph holds no cycle (DESIGN.md §6).

The FIFO is a plain list: credits bound it by ``vc_buffer_size`` (a few
flits), where ``pop(0)`` costs nothing and an empty list is an eighth of
an empty ``deque``.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["InputVC"]


class InputVC:
    """One input virtual channel (buffer + wormhole routing state)."""

    __slots__ = (
        "index",
        "in_port",
        "vc",
        "fifo",
        "out_port",
        "out_vc",
        "candidates",
        "node",
        "upstream",
    )

    def __init__(self, index: int, in_port: int, vc: int, node: int):
        self.index = index
        self.in_port = in_port
        self.vc = vc
        self.fifo: list = []
        self.out_port: int = -1
        self.out_vc: int = -1
        self.candidates: Optional[list] = None
        self.node = node
        self.upstream: Optional[tuple] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InputVC(port={self.in_port}, vc={self.vc}, depth={len(self.fifo)},"
            f" out={self.out_port}/{self.out_vc})"
        )
