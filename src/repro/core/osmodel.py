"""Kernel/OS traffic extension of the batch model (paper §V, Fig. 22).

The paper classifies kernel network activity into two kinds and models each
with a batch-size adjustment:

* **Application-dependent traffic** (system calls, traps — thread creation,
  synchronization at start/end): *independent of runtime*.  Modelled by a
  **static** batch increase before simulation: each node's batch grows by
  ``static_fraction`` · b requests of the OS traffic class.
* **Periodic timer interrupts**: traffic *proportional to runtime*.
  Modelled **dynamically**: every ``1/timer_rate`` cycles each node receives
  an extra mini-batch of ``timer_batch`` OS-class requests, so total OS
  traffic scales with the achieved runtime — the 75 MHz configuration simply
  has a much higher per-cycle ``timer_rate`` than 3 GHz, because the
  interrupt interval is fixed in wall-clock time, not cycles.

OS-class requests share the node's MSHR budget (``m``) with user requests,
are injected preferentially (interrupts preempt), and use their own NAR and
reply-model class (Table IV's OS columns).

OS-class requests carry traffic class :data:`repro.network.packet.OS`, so
under ``arbitration="priority"`` they also outrank user requests at the
source queue and at every switch; round-robin and age arbitration ignore
the class.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OSModel"]


@dataclass(frozen=True)
class OSModel:
    """Parameters of the kernel-traffic extension.

    ``static_fraction`` — extra OS requests as a fraction of the user batch
    (Table IV "application dependent additional traffic").
    ``timer_rate`` — timer interrupts per cycle (Table IV ``Rtimer``); an
    interrupt fires every ``round(1/timer_rate)`` cycles.
    ``timer_batch`` — OS requests added per node per interrupt.
    ``os_nar`` — injection rate of OS-class requests when eligible.
    """

    static_fraction: float = 0.5
    timer_rate: float = 0.004
    timer_batch: int = 4
    os_nar: float = 1.0

    def __post_init__(self) -> None:
        if self.static_fraction < 0:
            raise ValueError("static_fraction must be >= 0")
        if not 0.0 <= self.timer_rate < 1.0:
            raise ValueError("timer_rate must be in [0, 1)")
        if self.timer_batch < 0:
            raise ValueError("timer_batch must be >= 0")
        if not 0.0 < self.os_nar <= 1.0:
            raise ValueError("os_nar must be in (0, 1]")

    @property
    def timer_interval(self) -> int:
        """Cycles between timer interrupts (0 disables the timer)."""
        if self.timer_rate <= 0.0 or self.timer_batch == 0:
            return 0
        return max(1, round(1.0 / self.timer_rate))

    def static_extra(self, batch_size: int) -> int:
        """OS requests added to each node's batch before simulation."""
        return round(self.static_fraction * batch_size)
