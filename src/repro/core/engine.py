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
* **Probes** — an optional :class:`repro.core.probes.ProbeSet` observes
  every cycle and aggregates windowed instrumentation records; when absent
  the loop contains a single ``is None`` test and no probe code runs.
* **Health** — an optional :class:`repro.core.resilience.Watchdog` raises
  :class:`~repro.core.resilience.SimulationStalled` (with a diagnosis
  snapshot) when flits are in flight but nothing moves for a whole
  window, and ``check_invariants`` audits flit/credit conservation every
  few hundred cycles (:class:`~repro.core.resilience.InvariantChecker`).
  Both follow the probe contract: disabled costs one ``is None`` test.

Per-cycle order of operations (identical to what the five pre-engine
drivers each hand-rolled, so seeded results are bit-identical):

1. phase transitions for the cycle about to execute (counter snapshots),
2. stop check: ``injector.done and sink.done`` → completed, else budget,
3. ``injector.inject(engine)`` — offer this cycle's packets,
4. ``network.step()`` — one cycle of the fabric,
5. ``sink.on_delivered(pkt, engine)`` for each delivered packet,
6. probe sampling.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from ..network.base import NetworkLike

if TYPE_CHECKING:  # pragma: no cover
    from .probes import ProbeSet
    from .resilience import Watchdog


def _invariants_default() -> bool:
    """``check_invariants=None`` resolves against this environment toggle.

    The CI invariants job exports ``REPRO_CHECK_INVARIANTS=1`` to force
    conservation auditing across the whole fast suite without every test
    opting in explicitly.
    """
    return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")


def _fast_forward_default() -> bool:
    """``fast_forward=None`` resolves against this environment toggle.

    ``REPRO_DISABLE_FAST_FORWARD=1`` forces the dense cycle loop on every
    engine in the process — the equivalence suite uses it as the
    reference path to compare against through unmodified drivers.
    """
    return os.environ.get("REPRO_DISABLE_FAST_FORWARD", "") in ("", "0")

__all__ = [
    "Phase",
    "Injector",
    "Sink",
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
    """Creates traffic: called once per cycle before the network steps.

    Injectors *may* additionally implement ``next_event_cycle(engine)``
    (see the module docstring): when the network is idle, the engine asks
    the injector for the next cycle at which it could possibly inject and
    jumps the clock there in one step.  The default — not implementing the
    method at all, or returning ``None`` — safely disables fast-forward
    for that injector (the execution-driven CMP does per-cycle core work
    and must opt out).  An implementation must (a) never under-predict
    (returning a cycle *later* than the true next injection is a bug;
    earlier is merely slower), and (b) keep the run's RNG stream identical
    to the dense loop's by consuming exactly the per-cycle draws the dense
    loop would have consumed for every cycle it looked ahead through.
    """

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
        probes: Optional["ProbeSet"] = None,
        watchdog: Optional["Watchdog"] = None,
        check_invariants: Optional[bool] = None,
        fast_forward: Optional[bool] = None,
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
        self.probes = probes
        self.watchdog = watchdog
        if check_invariants is None:
            check_invariants = _invariants_default()
        if check_invariants:
            from .resilience import InvariantChecker

            self.invariants: Optional[InvariantChecker] = InvariantChecker()
        else:
            self.invariants = None
        if fast_forward is None:
            fast_forward = _fast_forward_default()
        self.fast_forward = fast_forward
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
        probes = self.probes
        measure_start = self._measure_start
        measure_end = self._measure_end
        max_cycles = self.max_cycles
        watchdog = self.watchdog
        invariants = self.invariants
        if probes is not None:
            probes.begin(net)
        if watchdog is not None:
            watchdog.begin(net)
        if invariants is not None:
            invariants.begin(net)
        next_event = (
            getattr(injector, "next_event_cycle", None) if self.fast_forward else None
        )
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
            # 2b. Idle-cycle fast-forward: when nothing is in flight and the
            #     injector can name its next injection cycle, jump the clock
            #     there in one step instead of stepping an empty fabric.  The
            #     jump is capped at every cycle something *could* happen — a
            #     phase boundary (stop checks and counter snapshots re-run
            #     there), the budget, and any event scheduled inside the
            #     network (credits in flight, fault activations) — so each
            #     skipped cycle is provably a no-op and results stay
            #     bit-identical to the dense loop.
            if next_event is not None and net.is_idle():
                nxt = next_event(self)
                if nxt is not None and nxt > now:
                    target = nxt
                    if now < measure_start < target:
                        target = measure_start
                    if measure_end is not None and now < measure_end < target:
                        target = measure_end
                    if max_cycles < target:
                        target = max_cycles
                    ev = net.next_internal_event_cycle()
                    if ev is not None and ev < target:
                        target = ev
                    if target > now:
                        net.advance_to(target)
                        # Hooks observe the skipped cycles [now, target) so
                        # their windows/schedules stay aligned with the
                        # dense loop's.
                        if probes is not None:
                            probes.on_idle_gap(net, now, target)
                        if watchdog is not None:
                            watchdog.on_idle_gap(net, now, target)
                        if invariants is not None:
                            invariants.on_idle_gap(net, now, target)
                        continue
            # 3-5. Inject, step, deliver.
            injector.inject(self)
            delivered = net.step()
            if delivered:
                for pkt in delivered:
                    sink.on_delivered(pkt, self)
            # 6. Probes and health checks observe the cycle that executed.
            if probes is not None:
                probes.on_cycle(net, now, delivered)
            if watchdog is not None:
                watchdog.on_cycle(net)
            if invariants is not None:
                invariants.on_cycle(net)
        records = probes.finish(net) if probes is not None else []
        return EngineResult(
            cycles=net.now,
            completed=completed,
            final_phase=self.phase,
            flits_at_measure_start=self.flits_at_measure_start,
            flits_at_measure_end=self.flits_at_measure_end,
            probe_records=records,
        )
