"""The unified cycle loop: one simulation engine, many drivers.

Every evaluation mode in the paper — open-loop, closed-loop batch, barrier,
trace-driven, execution-driven — is the *same* cycle loop with a different
packet source and a different completion rule.  :class:`SimulationEngine`
owns that loop once and nothing else:

* **One workload** — a :class:`Workload` offers traffic before each network
  cycle, consumes each delivered packet after it, and says when the run is
  done.  Whatever a driver measures (the open-loop warm-up/measure/drain
  window, a batch's runtime, a replay's latencies) lives in its workload.
* **Budget cutoff** — ``max_cycles`` bounds every run; :meth:`run` returns
  ``False`` when the budget, not the workload, ended it.
* **Observers** — the ``observers=`` tuple: the stall watchdog and the
  conservation auditor (:class:`~repro.core.resilience.Watchdog`,
  :class:`~repro.core.resilience.InvariantChecker`) both implement one
  :class:`Observer` protocol and watch every executed cycle, in tuple
  order; each keeps its own output.  ``REPRO_CHECK_INVARIANTS=1`` appends
  an :class:`~repro.core.resilience.InvariantChecker` when none is given.

Per-cycle order: ``workload.done`` → budget check → ``workload.inject`` →
``network.step()`` → ``workload.on_delivered`` per delivered packet →
``observer.on_cycle`` per observer.
"""

from __future__ import annotations

import os
from typing import Iterable, Protocol, runtime_checkable

from ..network.base import NetworkLike

__all__ = ["Workload", "Observer", "SimulationEngine"]


@runtime_checkable
class Workload(Protocol):
    """The traffic side of a run: its source, its sink and its stop rule."""

    def inject(self, net: NetworkLike) -> None:
        """Offer this cycle's packets (called before the network steps)."""
        ...

    def on_delivered(self, pkt, net: NetworkLike) -> None:
        """Consume one packet the network delivered this cycle."""
        ...

    def done(self, net: NetworkLike) -> bool:
        """True when the run is complete; asked at the top of every cycle."""
        ...


@runtime_checkable
class Observer(Protocol):
    """Watches the loop without steering it: the watchdog, invariants.

    ``begin`` runs once before the first cycle, ``on_cycle`` after every
    executed cycle (``now`` is the cycle that ran, ``delivered`` its
    deliveries), and ``finish`` once when the run ends.
    """

    def begin(self, net: NetworkLike) -> None: ...

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None: ...

    def finish(self, net: NetworkLike) -> None: ...


class SimulationEngine:
    """One instrumented cycle loop driving a :class:`NetworkLike` backend."""

    def __init__(
        self,
        network: NetworkLike,
        workload: Workload,
        *,
        max_cycles: int,
        observers: Iterable[Observer] = (),
    ):
        if max_cycles < 0:
            raise ValueError("max_cycles must be >= 0")
        self.network = network
        self.workload = workload
        self.max_cycles = max_cycles
        observers = tuple(observers)
        # The CI invariants job sets this to audit the whole fast suite.
        if os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0"):
            from .resilience import InvariantChecker

            if not any(isinstance(obs, InvariantChecker) for obs in observers):
                observers += (InvariantChecker(),)
        self.observers = observers

    def run(self) -> bool:
        """Run until the workload is done (True) or the budget ends (False)."""
        net = self.network
        workload = self.workload
        max_cycles = self.max_cycles
        observers = self.observers
        for obs in observers:
            obs.begin(net)
        completed = False
        while True:
            now = net.now
            if workload.done(net):
                completed = True
                break
            if now >= max_cycles:
                break
            workload.inject(net)
            delivered = net.step()
            if delivered:
                for pkt in delivered:
                    workload.on_delivered(pkt, net)
            for obs in observers:
                obs.on_cycle(net, now, delivered)
        for obs in observers:
            obs.finish(net)
        return completed
