"""The unified cycle-loop: one simulation engine, many drivers.

Every evaluation mode in the paper — open-loop, closed-loop batch, barrier,
trace-driven, execution-driven — is the *same* cycle loop with a different
packet source and a different completion rule.  :class:`SimulationEngine`
owns that loop once:

* **Phase control** — an optional ``warmup → measure → drain`` lifecycle
  (Dally & Towles ch. 23).  The engine tracks the current :class:`Phase`,
  snapshots the delivered-flit counters at the measurement-window edges
  (for throughput), and exposes ``in_measure`` so injectors can tag packets
  created inside the window.  Drivers that run to completion (closed-loop,
  trace replay, CMP) simply leave ``warmup=0, measure=None`` and stay in
  ``MEASURE`` for the whole run.
* **Budget cutoff** — ``max_cycles`` bounds every run; a run that stops on
  budget reports ``completed=False`` (the open-loop driver maps that to
  ``saturated``).
* **Pluggable strategies** — an :class:`Injector` creates traffic before
  each network cycle, a :class:`Sink` consumes each delivered packet after
  it; the engine stops when both report ``done``.  One object may play both
  roles (the closed-loop batch state machine must: deliveries feed back
  into injection eligibility).
* **Observers** — the ``observers=`` tuple: probes
  (:class:`repro.core.probes.ProbeSet`), the stall watchdog and the
  conservation auditor (:class:`~repro.core.resilience.Watchdog`,
  :class:`~repro.core.resilience.InvariantChecker`) all implement one
  :class:`Observer` protocol and watch every executed cycle, in tuple
  order.  A run without observers iterates an empty tuple and runs no
  observer code.  ``REPRO_CHECK_INVARIANTS=1`` appends an
  :class:`~repro.core.resilience.InvariantChecker` when none is given.

Per-cycle order of operations (identical to what the five pre-engine
drivers each hand-rolled, so seeded results are bit-identical):

1. phase transitions for the cycle about to execute (counter snapshots),
2. stop check: ``injector.done and sink.done`` → completed, else budget,
3. ``injector.inject(engine)`` — offer this cycle's packets,
4. ``network.step()`` — one cycle of the fabric,
5. ``sink.on_delivered(pkt, engine)`` for each delivered packet,
6. ``observer.on_cycle(net, now, delivered)`` for each observer.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, runtime_checkable

from ..network.base import NetworkLike

__all__ = [
    "Phase",
    "Injector",
    "Sink",
    "Observer",
    "DrainSink",
    "EngineResult",
    "SimulationEngine",
]


class Phase(enum.Enum):
    """Lifecycle phase of a measurement run."""

    WARMUP = "warmup"
    MEASURE = "measure"
    DRAIN = "drain"


@runtime_checkable
class Injector(Protocol):
    """Creates traffic: called once per cycle before the network steps."""

    def inject(self, engine: "SimulationEngine") -> None:
        """Offer this cycle's packets to ``engine.network``."""
        ...

    def done(self, engine: "SimulationEngine") -> bool:
        """True when this injector no longer requires the loop to continue."""
        ...


@runtime_checkable
class Sink(Protocol):
    """Consumes deliveries: called per delivered packet after each step."""

    def on_delivered(self, pkt, engine: "SimulationEngine") -> None: ...

    def done(self, engine: "SimulationEngine") -> bool:
        """True when the sink's completion criterion is met."""
        ...


@runtime_checkable
class Observer(Protocol):
    """Watches the loop without steering it: probes, watchdog, invariants.

    ``begin`` runs once before the first cycle, ``on_cycle`` after every
    executed cycle (``now`` is the cycle that ran, ``delivered`` its
    deliveries), and ``finish`` once when the run ends; what ``finish``
    returns joins :attr:`EngineResult.probe_records`.
    """

    def begin(self, net: NetworkLike) -> None: ...

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None: ...

    def finish(self, net: NetworkLike) -> list[dict]: ...


class DrainSink:
    """Trivial sink: discard deliveries, done when the network is idle.

    The right sink for throughput-style drivers (barrier, trace replay)
    whose completion rule is simply "everything injected has drained".
    """

    def on_delivered(self, pkt, engine: "SimulationEngine") -> None:
        pass

    def done(self, engine: "SimulationEngine") -> bool:
        return engine.network.is_idle()


@dataclass
class EngineResult:
    """What the engine itself measured; drivers layer their own results on top."""

    cycles: int
    completed: bool
    final_phase: Phase
    flits_at_measure_start: Optional[int] = None
    flits_at_measure_end: Optional[int] = None
    probe_records: list = field(default_factory=list, repr=False)

    @property
    def measured_flits(self) -> Optional[int]:
        """Flits delivered inside the measurement window (None if no window)."""
        if self.flits_at_measure_start is None or self.flits_at_measure_end is None:
            return None
        return self.flits_at_measure_end - self.flits_at_measure_start


class SimulationEngine:
    """One instrumented cycle loop driving a :class:`NetworkLike` backend."""

    def __init__(
        self,
        network: NetworkLike,
        injector: Injector,
        sink: Optional[Sink] = None,
        *,
        warmup: int = 0,
        measure: Optional[int] = None,
        max_cycles: int,
        observers: Iterable[Observer] = (),
    ):
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        if measure is not None and measure < 0:
            raise ValueError("measure must be >= 0 (or None for unbounded)")
        if max_cycles < 0:
            raise ValueError("max_cycles must be >= 0")
        if sink is None:
            if not isinstance(injector, Sink):
                raise TypeError(
                    "sink omitted but injector does not implement the Sink protocol"
                )
            sink = injector
        self.network = network
        self.injector = injector
        self.sink = sink
        self.warmup = warmup
        self.measure = measure
        self.max_cycles = max_cycles
        observers = tuple(observers)
        # The CI invariants job sets this to audit the whole fast suite.
        if os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0"):
            from .resilience import InvariantChecker

            if not any(isinstance(obs, InvariantChecker) for obs in observers):
                observers += (InvariantChecker(),)
        self.observers = observers
        self._measure_start = warmup
        self._measure_end = None if measure is None else warmup + measure
        self.phase = Phase.WARMUP if warmup > 0 else Phase.MEASURE
        self.flits_at_measure_start: Optional[int] = None
        self.flits_at_measure_end: Optional[int] = None

    # -- phase queries ---------------------------------------------------------
    @property
    def in_measure(self) -> bool:
        """True while packets created now fall inside the measurement window."""
        return self.phase is Phase.MEASURE

    @property
    def in_drain(self) -> bool:
        return self.phase is Phase.DRAIN

    # -- the loop ---------------------------------------------------------------
    def run(self) -> EngineResult:
        """Run until injector and sink agree they are done, or the budget ends."""
        net = self.network
        injector = self.injector
        sink = self.sink
        shared = sink is injector
        measure_start = self._measure_start
        measure_end = self._measure_end
        max_cycles = self.max_cycles
        observers = self.observers
        for obs in observers:
            obs.begin(net)
        completed = False
        while True:
            now = net.now
            # 1. Phase transitions take effect for the cycle about to run.
            if now == measure_start:
                self.phase = Phase.MEASURE
                self.flits_at_measure_start = net.total_flits_delivered
            if measure_end is not None and now == measure_end:
                self.phase = Phase.DRAIN
                self.flits_at_measure_end = net.total_flits_delivered
            # 2. Stop checks: completion first (matching the drivers'
            #    historical ``while not-done and now < budget`` loops).
            if injector.done(self) and (shared or sink.done(self)):
                completed = True
                break
            if now >= max_cycles:
                break
            # 3-5. Inject, step, deliver.
            injector.inject(self)
            delivered = net.step()
            if delivered:
                for pkt in delivered:
                    sink.on_delivered(pkt, self)
            # 6. Observers watch the cycle that executed.
            for obs in observers:
                obs.on_cycle(net, now, delivered)
        records = [rec for obs in observers for rec in obs.finish(net)]
        return EngineResult(
            cycles=net.now,
            completed=completed,
            final_phase=self.phase,
            flits_at_measure_start=self.flits_at_measure_start,
            flits_at_measure_end=self.flits_at_measure_end,
            probe_records=records,
        )
