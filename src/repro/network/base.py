"""The driver-facing network contract shared by every network backend.

Every workload driver in this repo — open-loop, closed-loop batch, barrier,
trace-driven, and the execution-driven CMP — talks to the network through
the same four calls (``make_packet`` / ``offer`` / ``step`` / ``is_idle``),
so the contract lives here once:

* :class:`NetworkLike` is the structural :class:`~typing.Protocol` the
  simulation engine (:mod:`repro.core.engine`) is written against.  Anything
  that satisfies it — including third-party backends — can be driven by any
  driver unchanged.
* :class:`BaseNetwork` is the concrete shared half: packet-id allocation,
  in-flight accounting, delivered/ejected flit counters, and the ``run`` /
  ``is_idle`` conveniences that :class:`repro.network.network.Network` and
  :class:`repro.network.ideal.IdealNetwork` previously each hand-rolled.

Probing hooks: ``_flit_hook`` (called per link traversal when a
:class:`~repro.core.probes.ChannelUtilizationProbe` is attached) and the
always-on ``injection_stalls`` counter are part of the base state so the
probe layer works against any backend; both are inert — a single ``None``
check / integer increment — when no probe is attached.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

from .packet import Packet

__all__ = ["NetworkLike", "BaseNetwork", "BackendUnsupported"]


class BackendUnsupported(ValueError):
    """A backend rejecting, at construction, a feature it cannot reproduce.

    Subclasses :class:`ValueError` so existing ``except ValueError`` guards
    keep working, and carries the pieces — backend, feature, suggested
    alternative — structured, so CLIs and the sweep service can render
    actionable messages instead of pattern-matching strings.
    """

    def __init__(
        self, backend: str, feature: str, detail: str, *, suggestion: str = "object"
    ) -> None:
        self.backend = backend
        self.feature = feature
        self.suggestion = suggestion
        super().__init__(
            f"backend={backend!r} does not support {feature}: {detail}; "
            f"use backend={suggestion!r} for this configuration"
        )


@runtime_checkable
class NetworkLike(Protocol):
    """Structural protocol every engine-drivable network satisfies."""

    num_nodes: int
    now: int
    total_packets_delivered: int
    total_flits_delivered: int

    def make_packet(self, src: int, dst: int, size: int, **kwargs: Any) -> Packet: ...

    def offer(self, packet: Packet) -> None: ...

    def step(self) -> list: ...

    def is_idle(self) -> bool: ...


class BaseNetwork:
    """Shared state and conveniences for cycle-steppable networks.

    Subclasses implement :meth:`offer` and :meth:`step`; everything a driver
    or probe reads — cycle clock, in-flight count, per-node flit counters —
    is initialised and maintained here.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.now = 0
        self._delivered: list[Packet] = []
        self._inflight = 0
        self._next_pid = 0
        self.total_packets_delivered = 0
        self.total_flits_delivered = 0
        #: flit link traversals (watchdog forward-progress signal)
        self.total_flit_traversals = 0
        self.flit_ejections = np.zeros(num_nodes, dtype=np.int64)
        self.flit_injections = np.zeros(num_nodes, dtype=np.int64)
        #: cycles a source spent unable to stream a queued flit (backpressure)
        self.injection_stalls = 0
        #: read by the benchmark (benchmarks/e2e/workloads.py); always 0
        self.fast_forwarded_cycles = 0
        #: per-link-traversal probe callback; None == probing disabled
        self._flit_hook = None

    # -- driver API -----------------------------------------------------------
    def make_packet(
        self,
        src: int,
        dst: int,
        size: int,
        *,
        is_reply: bool = False,
        traffic_class: int = 0,
        measured: bool = True,
        meta=None,
    ) -> Packet:
        """Create a packet stamped with the current cycle and a fresh id."""
        pkt = Packet(
            self._next_pid,
            src,
            dst,
            size,
            self.now,
            is_reply=is_reply,
            traffic_class=traffic_class,
            measured=measured,
            meta=meta,
        )
        self._next_pid += 1
        return pkt

    def offer(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> list[Packet]:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, cycles: int) -> list[Packet]:
        """Step ``cycles`` times, returning all deliveries (convenience)."""
        out: list[Packet] = []
        for _ in range(cycles):
            out.extend(self.step())
        return out

    def is_idle(self) -> bool:
        """True when no packet is queued, buffered, or on a link."""
        return self._inflight == 0

    # -- names the benchmark tracer binds ----------------------------------------
    # benchmarks/e2e/tracing.py wraps these two by name; the engine calls
    # neither, so ``fast_forwarded_cycles`` stays 0.
    def next_internal_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which this network has scheduled work."""
        return None

    def advance_to(self, cycle: int) -> None:
        """Jump the clock of an idle network to ``cycle``."""
        if cycle < self.now:
            raise ValueError(f"cannot advance backwards: {cycle} < {self.now}")
        self.fast_forwarded_cycles += cycle - self.now
        self.now = cycle

    @property
    def in_flight(self) -> int:
        """Packets offered but not yet fully delivered."""
        return self._inflight

    def buffered_flits(self) -> int:
        """Flits currently buffered inside the fabric (0 for bufferless)."""
        return 0

    # -- probe support ----------------------------------------------------------
    def probe_channels(self):
        """Directed channels for per-link probes (empty for ideal fabrics)."""
        return ()

    def probe_vc_occupancy(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-node buffered-flit occupancy snapshot (zeros for bufferless)."""
        if out is None:
            return np.zeros(self.num_nodes, dtype=np.int64)
        out[:] = 0
        return out
