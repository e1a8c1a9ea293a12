"""Synthetic surrogate benchmarks (SPLASH-2 / PARSEC stand-ins).

The paper runs ``blackscholes``, ``lu``, ``canneal``, ``fft`` and ``barnes``
under Simics/GEMS.  We cannot run SPARC/Solaris binaries, but the paper
itself consumes each benchmark only through its *observable network
behaviour*: NAR, L2 miss rate, kernel-traffic share, and timer-interrupt
rate (Tables III & IV, Figs. 13/20/21).  Each surrogate is therefore a
phase-structured synthetic instruction stream calibrated to those published
observables, executed on real cache structures — so the execution-driven
comparison exercises the same mechanisms (MSHR limits, L2/DRAM latencies,
bursty kernel activity) with matching operating points.

A benchmark is a sequence of :class:`PhaseSpec`; kernel activity appears as
OS-class phases at the start and end (thread creation / teardown syscalls,
visible as the big peaks in Fig. 21) plus a timer-interrupt handler phase
re-entered every interval (see :class:`repro.execdriven.cmp.CmpSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.packet import OS, USER

__all__ = [
    "PhaseSpec",
    "BenchmarkSpec",
    "blackscholes",
    "lu",
    "canneal",
    "fft",
    "barnes",
    "BENCHMARKS",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One execution phase of a synthetic benchmark.

    ``mem_ratio`` — fraction of instructions that are memory accesses;
    ``p_mid``/``p_cold`` — per *memory access*, probability of drawing from
    the L2-resident (L1-missing) and beyond-L2 pools respectively (the rest
    hit the per-core hot set).  ``traffic_class`` tags generated packets as
    user or kernel traffic.
    """

    name: str
    instructions: int
    mem_ratio: float
    p_mid: float
    p_cold: float
    traffic_class: int = USER
    partner_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError("instructions must be >= 0")
        if not 0.0 < self.mem_ratio <= 1.0:
            raise ValueError("mem_ratio must be in (0, 1]")
        if self.p_mid < 0 or self.p_cold < 0 or self.p_mid + self.p_cold > 1.0:
            raise ValueError("need p_mid, p_cold >= 0, p_mid + p_cold <= 1")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A surrogate benchmark: phases, sharing structure, kernel profile.

    ``timer_handler`` runs on every timer interrupt (its instruction count
    is the handler length).  ``neighbors`` lists each core's logical
    communication partners as offsets (e.g. ``(+1, -1, +4, -4)`` for a 2D
    stencil); together with ``partner_bias`` it shapes the *logical*
    communication matrix of Fig. 13(a).
    """

    name: str
    phases: tuple[PhaseSpec, ...]
    timer_handler: PhaseSpec
    neighbors: tuple[int, ...] = ()
    producer_random: bool = False
    mid_lines: int = 65536
    cold_lines: int = 1 << 22
    #: fraction of L1 misses that block the in-order pipeline; benchmarks
    #: with tight dependence chains (pointer chasing, factorization) block
    #: on nearly every miss, streaming codes (fft) on far fewer.
    blocking_fraction: float = 0.85

    def total_instructions(self) -> int:
        return sum(p.instructions for p in self.phases)

    def scaled(self, factor: float) -> "BenchmarkSpec":
        """Copy with every phase's instruction count scaled by ``factor``.

        Used to shrink runs for CI-speed simulation while preserving rates.
        """
        phases = tuple(
            PhaseSpec(
                p.name,
                max(1, round(p.instructions * factor)),
                p.mem_ratio,
                p.p_mid,
                p.p_cold,
                p.traffic_class,
                p.partner_bias,
            )
            for p in self.phases
        )
        return BenchmarkSpec(
            self.name,
            phases,
            self.timer_handler,
            self.neighbors,
            self.producer_random,
            self.mid_lines,
            self.cold_lines,
            self.blocking_fraction,
        )


def _kernel_bursts(
    main: "PhaseSpec",
    static_fraction: float,
    *,
    os_l2_miss: float = 0.02,
    split: float = 0.55,
    mem_ratio: float = 0.35,
    p_miss: float = 0.30,
) -> tuple["PhaseSpec", "PhaseSpec"]:
    """Spawn/join syscall bursts sized to the Table IV static fraction.

    The burst pair together generates ``static_fraction`` × the main phase's
    request count (the paper's "application dependent additional traffic"),
    split ``split``/(1-``split``) between program start and end.  Burst
    accesses are mostly L2-resident (``os_l2_miss`` sets the cold share),
    matching the small OS L2 miss rates of Table IV.
    """
    main_requests = main.instructions * main.mem_ratio * (main.p_mid + main.p_cold)
    burst_instr = static_fraction * main_requests / (mem_ratio * p_miss)
    p_cold = p_miss * os_l2_miss
    p_mid = p_miss - p_cold
    spawn = PhaseSpec(
        "spawn", max(1, round(burst_instr * split)), mem_ratio, p_mid, p_cold, OS
    )
    join = PhaseSpec(
        "join", max(1, round(burst_instr * (1 - split))), mem_ratio, p_mid, p_cold, OS
    )
    return spawn, join


def _timer_handler(instructions: int = 400, *, os_l2_miss: float = 0.02) -> PhaseSpec:
    """Timer-interrupt handler: a short kernel burst re-run every interval."""
    p_miss = 0.30
    p_cold = p_miss * os_l2_miss
    return PhaseSpec("timer", instructions, 0.35, p_miss - p_cold, p_cold, OS)


# ---------------------------------------------------------------------------
# Calibration notes.  Targets from the paper (Tables III/IV):
#   bench         NAR    L2miss | userNAR osNAR userL2 osL2  extra  Rtimer
#   blackscholes  0.028  0.006  | 0.024   0.266 0.004  0.013 0.58   0.00245
#   lu            0.011  0.183  | 0.021   0.048 0.418  0.005 0.53   0.0080
#   canneal       0.040  0.207  | 0.038   0.126 0.274  0.029 0.57   0.0038
#   fft           0.033  0.629  | 0.033   0.442 0.708  0.021 0.34   0.0056
#   barnes        0.047  0.019  | 0.055   0.063 0.011  0.017 0.67   0.0015
#
# With 1-flit requests and 4-flit data replies (64 B line / 16 B links), a
# miss moves ~5 flits, so the per-cycle miss rate is ≈ NAR / 5 and the per-
# instruction L1 miss probability is  mem_ratio · (p_mid + p_cold)  (hot
# accesses hit).  p_cold / (p_mid + p_cold) sets the L2 miss rate.  Phase
# mixes below back out those numbers at CPI ≈ 1.3.
# ---------------------------------------------------------------------------


def _main_phase(
    name: str,
    instructions: int,
    *,
    nar: float,
    l2_miss: float,
    mem_ratio: float = 0.30,
    partner_bias: float = 0.0,
    flits_per_miss: float = 5.0,
    blocking_fraction: float = 0.7,
    ideal_rtt: float = 14.0,
    memory_latency: float = 300.0,
    l1_latency: float = 2.0,
    cpi_cap: float = 5.0,
) -> PhaseSpec:
    """User phase whose pool mix targets a (NAR, L2 miss) operating point.

    NAR is defined under the ideal network, where the CPI itself depends on
    the miss rate through blocking-load stalls — so the calibration solves
    the small fixed point  miss/instr = NAR/flits · CPI(miss/instr).  For
    memory-dominated points (high L2 miss × blocking loads) the fixed point
    diverges — the target NAR is unreachable on an in-order core — so the
    CPI is capped at ``cpi_cap`` and the achieved NAR lands below target,
    exactly the regime where the paper finds router delay matters least
    (fft, Fig. 14).
    """
    p_miss = 0.02
    stall = blocking_fraction * (ideal_rtt + l2_miss * memory_latency)
    base = 1.0 + mem_ratio * (l1_latency - 1.0)
    for _ in range(25):
        cpi = min(cpi_cap, base + mem_ratio * p_miss * stall)
        p_miss = min(0.95, nar / flits_per_miss * cpi / mem_ratio)
    p_cold = p_miss * l2_miss
    p_mid = p_miss - p_cold
    return PhaseSpec(name, instructions, mem_ratio, p_mid, p_cold, USER, partner_bias)


def blackscholes(instructions: int = 60_000) -> BenchmarkSpec:
    """Embarrassingly parallel option pricing: tiny working set, almost no
    sharing, large kernel share from thread setup/teardown."""
    main = _main_phase(
        "price", instructions, nar=0.024, l2_miss=0.004, blocking_fraction=0.85
    )
    spawn, join = _kernel_bursts(main, 0.58, os_l2_miss=0.013)
    return BenchmarkSpec(
        name="blackscholes",
        phases=(spawn, main, join),
        timer_handler=_timer_handler(os_l2_miss=0.013),
        neighbors=(),
        mid_lines=32768,
        blocking_fraction=0.85,
    )


def lu(instructions: int = 60_000) -> BenchmarkSpec:
    """Blocked LU decomposition: block-partitioned matrix, structured
    neighbour sharing, moderate L2 miss rate, low NAR."""
    main = _main_phase(
        "factor",
        instructions,
        nar=0.021,
        l2_miss=0.418,
        partner_bias=0.5,
        blocking_fraction=1.0,
    )
    spawn, join = _kernel_bursts(main, 0.53, os_l2_miss=0.005)
    return BenchmarkSpec(
        name="lu",
        phases=(spawn, main, join),
        timer_handler=_timer_handler(os_l2_miss=0.005),
        neighbors=(1, -1, 4, -4),
        mid_lines=65536,
        cold_lines=1 << 21,
        blocking_fraction=1.0,
    )


def canneal(instructions: int = 60_000) -> BenchmarkSpec:
    """Simulated annealing over a netlist: random-ownership shared data,
    high NAR, substantial L2 miss rate."""
    main = _main_phase(
        "anneal",
        instructions,
        nar=0.038,
        l2_miss=0.274,
        partner_bias=0.3,
        blocking_fraction=0.95,
    )
    spawn, join = _kernel_bursts(main, 0.57, os_l2_miss=0.029)
    return BenchmarkSpec(
        name="canneal",
        phases=(spawn, main, join),
        timer_handler=_timer_handler(os_l2_miss=0.029),
        neighbors=(),
        producer_random=True,
        cold_lines=1 << 22,
        blocking_fraction=0.95,
    )


def fft(instructions: int = 60_000) -> BenchmarkSpec:
    """All-to-all transpose FFT: streaming access, very high L2 miss rate,
    butterfly-partner sharing."""
    main = _main_phase(
        "butterfly",
        instructions,
        nar=0.033,
        l2_miss=0.708,
        partner_bias=0.6,
        blocking_fraction=0.45,
    )
    spawn, join = _kernel_bursts(main, 0.34, os_l2_miss=0.021)
    return BenchmarkSpec(
        name="fft",
        phases=(spawn, main, join),
        timer_handler=_timer_handler(os_l2_miss=0.021),
        neighbors=(1, 2, 4, 8),
        cold_lines=1 << 22,
        blocking_fraction=0.45,
    )


def barnes(instructions: int = 60_000) -> BenchmarkSpec:
    """Barnes-Hut N-body: tree traversal with high locality (tiny L2 miss
    rate) but the highest NAR of the suite."""
    main = _main_phase(
        "tree", instructions, nar=0.055, l2_miss=0.011, partner_bias=0.2, blocking_fraction=0.9
    )
    spawn, join = _kernel_bursts(main, 0.67, os_l2_miss=0.017)
    return BenchmarkSpec(
        name="barnes",
        phases=(spawn, main, join),
        timer_handler=_timer_handler(os_l2_miss=0.017),
        neighbors=(1, -1),
        mid_lines=49152,
        blocking_fraction=0.9,
    )


#: The paper's benchmark suite, by name.
BENCHMARKS = {
    "blackscholes": blackscholes,
    "lu": lu,
    "canneal": canneal,
    "fft": fft,
    "barnes": barnes,
}
