"""Benchmark characterization and batch-model parameter derivation.

This module closes the paper's methodology loop:

1. :func:`characterize` runs a benchmark on the **ideal network** and
   extracts the Table III / Table IV observables — ideal cycle count, total
   flits, NAR, L2 miss rate, the user/OS splits, the static kernel-traffic
   fraction, and the measured timer rate.
2. :func:`derive_batch_params` converts a characterization into the
   enhanced batch model's parameters (``nar``, a per-class probabilistic
   reply model, and an :class:`~repro.core.osmodel.OSModel`) — the exact
   parameter flow of §IV-D and §V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import CmpConfig
from ..core.osmodel import OSModel
from ..core.reply import PerClassReply, ProbabilisticReply
from ..network.packet import OS, USER
from .benchmarks import BenchmarkSpec
from .cmp import CmpResult, CmpSystem

__all__ = ["Characterization", "characterize", "derive_batch_params"]


@dataclass(frozen=True)
class Characterization:
    """Table III + Table IV observables for one benchmark."""

    benchmark: str
    ideal_cycles: int
    instructions: int
    total_flits: int
    nar: float
    l2_miss_rate: float
    user_nar: float
    os_nar: float
    user_l2_miss: float
    os_l2_miss: float
    static_kernel_fraction: float
    timer_rate: float
    interrupts: int
    os_request_rate_active: float

    @classmethod
    def from_result(cls, result: CmpResult) -> "Characterization":
        return cls(
            benchmark=result.benchmark,
            ideal_cycles=result.cycles,
            instructions=result.instructions,
            total_flits=result.total_flits,
            nar=result.nar,
            l2_miss_rate=result.l2_miss_rate,
            user_nar=result.nar_of_class(USER),
            os_nar=result.nar_of_class(OS),
            user_l2_miss=result.l2_miss_by_class.get(USER, 0.0),
            os_l2_miss=result.l2_miss_by_class.get(OS, 0.0),
            static_kernel_fraction=result.static_kernel_fraction,
            timer_rate=result.timer_rate,
            interrupts=result.interrupts,
            os_request_rate_active=result.os_request_rate_active,
        )


def characterize(
    benchmark: BenchmarkSpec,
    config: Optional[CmpConfig] = None,
    *,
    timer_interval: int = 0,
    seed: int = 1,
) -> Characterization:
    """Run ``benchmark`` on the ideal network and extract its observables.

    The ideal network is the definitional setting for NAR (§IV-C1); pass a
    ``timer_interval`` to also measure the kernel timer columns of
    Table IV.
    """
    system = CmpSystem(
        benchmark, config, ideal=True, timer_interval=timer_interval, seed=seed
    )
    return Characterization.from_result(system.run())


def derive_batch_params(
    ch: Characterization,
    config: Optional[CmpConfig] = None,
    *,
    timer_batch: int = 4,
    timer_rate: Optional[float] = None,
) -> dict:
    """Enhanced-batch-model parameters implied by a characterization.

    Returns kwargs for :class:`repro.core.closedloop.BatchSimulator`:
    ``nar`` (per-node request rate under the ideal network — NAR in packets,
    i.e. flits scaled by the request+reply footprint), ``reply_model`` (a
    per-class probabilistic L2/DRAM model using the measured miss rates),
    and ``os_model`` (static fraction + timer rate).

    ``timer_rate`` overrides the characterization's measured rate — use
    this to target a clock configuration (e.g. 1/interval for 75 MHz) when
    the characterization itself ran timer-free, which keeps its NAR and
    miss-rate columns clean (timer traffic would otherwise inflate them).
    """
    cfg = config if config is not None else CmpConfig()
    flits_per_op = 1 + 4  # request + data reply, as injected by the CMP
    user_rate = min(1.0, ch.user_nar / flits_per_op * 2)
    # While a core is *in* the kernel it injects at the per-kernel-
    # instruction density (divided by a nominal kernel CPI); the aggregate
    # per-cycle OS NAR would dilute that by the whole runtime and make
    # kernel batches absurdly slow to drain.
    kernel_cpi = 1.4
    os_rate = min(1.0, max(ch.os_request_rate_active / kernel_cpi, 1e-4))
    reply = PerClassReply(
        {
            USER: ProbabilisticReply(cfg.l2_latency, cfg.memory_latency, ch.user_l2_miss),
            OS: ProbabilisticReply(cfg.l2_latency, cfg.memory_latency, ch.os_l2_miss),
        },
        default=ProbabilisticReply(cfg.l2_latency, cfg.memory_latency, ch.l2_miss_rate),
    )
    os_model = OSModel(
        static_fraction=ch.static_kernel_fraction,
        timer_rate=ch.timer_rate if timer_rate is None else timer_rate,
        timer_batch=timer_batch,
        os_nar=os_rate,
    )
    return {"nar": max(user_rate, 1e-4), "reply_model": reply, "os_model": os_model}
