"""Execution-driven CMP simulation (the Simics/GEMS+Garnet stand-in).

:class:`CmpSystem` assembles the Table II machine: 16 in-order cores with
private L1s and MSHRs, a distributed shared L2 (one home tile per node),
300-cycle DRAM, and the cycle-level 4×4 mesh from :mod:`repro.network` —
or the ideal network, for NAR / ideal-cycle-count characterization.

An L1 miss becomes a 1-flit request packet to the line's home tile; the
tile's L2 bank services it and returns a 4-flit data reply (64 B line over
16 B links).  Timer interrupts (optional) push the benchmark's kernel
handler onto every core at a fixed cycle interval.

The run records everything the paper's Figures 13/14/20/21 and Tables
III/IV need: per-class flit counts and timelines, the actual source →
destination traffic matrix, the logical producer/consumer matrix, L2 miss
rates per class, and interrupt counts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from .. import rng as rng_mod
from ..config import CmpConfig
from ..core.engine import Observer, SimulationEngine
from ..network.ideal import IdealNetwork
from ..network.links import TimeBuckets
from ..network.factory import build_network
from ..network.packet import OS, USER
from .address import AddressSpace
from .benchmarks import BenchmarkSpec
from .core import InOrderCore
from .memsys import HomeTile
from .mshr import MSHRFile
from .cache import SetAssocCache

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network

__all__ = ["CmpSystem", "CmpResult", "REQUEST_FLITS", "REPLY_FLITS"]

REQUEST_FLITS = 1
REPLY_FLITS = 4

#: request kinds, indexing the per-kind counters
_KINDS = ("user", "kernel_burst", "kernel_timer")


@dataclass
class CmpResult:
    """Measurements of one execution-driven run."""

    benchmark: str
    cycles: int
    instructions: int
    completed: bool
    total_flits: int
    requests: int
    flits_by_class: dict[int, int]
    requests_by_kind: dict[str, int]
    l2_accesses: int
    l2_misses: int
    l2_miss_by_class: dict[int, float]
    interrupts: int
    timer_interval: int
    mshr_stall_cycles: int
    kernel_instructions: int
    timeline_bucket: int
    timeline: np.ndarray = field(repr=False)  # [class, bucket] flits
    traffic_matrix: np.ndarray = field(repr=False)  # [src, dst] flits
    logical_matrix: np.ndarray = field(repr=False)  # [consumer, producer]

    @property
    def nar(self) -> float:
        """Network access rate: flits/cycle/node over the whole run."""
        n = self.traffic_matrix.shape[0]
        return self.total_flits / (self.cycles * n) if self.cycles else 0.0

    def nar_of_class(self, traffic_class: int) -> float:
        """Per-class NAR (Table IV's user/OS columns)."""
        n = self.traffic_matrix.shape[0]
        flits = self.flits_by_class.get(traffic_class, 0)
        return flits / (self.cycles * n) if self.cycles else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def kernel_fraction(self) -> float:
        """Kernel share of total network traffic (Fig. 20's split)."""
        kernel = self.flits_by_class.get(OS, 0)
        return kernel / self.total_flits if self.total_flits else 0.0

    @property
    def static_kernel_fraction(self) -> float:
        """Syscall/trap (runtime-independent) kernel requests relative to
        user requests — the paper's "application dependent additional
        traffic" column of Table IV."""
        user = self.requests_by_kind.get("user", 0)
        burst = self.requests_by_kind.get("kernel_burst", 0)
        return burst / user if user else 0.0

    @property
    def timer_rate(self) -> float:
        """Measured timer interrupts per cycle (Table IV's Rtimer)."""
        return self.interrupts / self.cycles if self.cycles else 0.0

    @property
    def kernel_requests(self) -> int:
        """Network requests issued from kernel phases (bursts + timer)."""
        return self.requests_by_kind.get("kernel_burst", 0) + self.requests_by_kind.get(
            "kernel_timer", 0
        )

    @property
    def os_request_rate_active(self) -> float:
        """Kernel requests per *kernel-active instruction* — the in-handler
        injection density the OS-extended batch model needs (aggregate
        per-cycle OS NAR dilutes it by the whole runtime)."""
        if not self.kernel_instructions:
            return 0.0
        return self.kernel_requests / self.kernel_instructions


class CmpSystem:
    """A 16-core CMP running one surrogate benchmark."""

    def __init__(
        self,
        benchmark: BenchmarkSpec,
        config: Optional[CmpConfig] = None,
        *,
        ideal: bool = False,
        timer_interval: int = 0,
        seed: int = 1,
        timeline_bucket: int = 1000,
        warm_start: bool = True,
        observers: Iterable[Observer] = (),
    ):
        self.benchmark = benchmark
        self.config = config if config is not None else CmpConfig()
        self.ideal = ideal
        self.timer_interval = timer_interval
        self.seed = seed
        self.timeline_bucket = timeline_bucket
        cfg = self.config
        n = cfg.num_cores
        self.network: Union[Network, IdealNetwork]
        if ideal:
            self.network = IdealNetwork(n)
        else:
            self.network = build_network(cfg.network)
        self.space = AddressSpace(
            n,
            mid_lines=benchmark.mid_lines,
            cold_lines=benchmark.cold_lines,
            producer_random=benchmark.producer_random,
        )
        self.tiles = [
            HomeTile(
                t,
                l2_lines=cfg.l2_lines_per_tile,
                l2_assoc=cfg.l2_assoc,
                l2_latency=cfg.l2_latency,
                memory_latency=cfg.memory_latency,
                interleave=n,
            )
            for t in range(n)
        ]
        self.logical_matrix = np.zeros((n, n), dtype=np.int64)
        self.traffic_matrix = np.zeros((n, n), dtype=np.int64)
        self._flits_by_class = {USER: 0, OS: 0}
        self._requests_by_kind = dict.fromkeys(_KINDS, 0)
        self._timeline: dict[int, np.ndarray] = {
            USER: np.zeros(256, dtype=np.int64),
            OS: np.zeros(256, dtype=np.int64),
        }
        # A core's request callback holds the system weakly: a bound method
        # would close the cycle system -> cores -> core -> system, which only
        # the generation-2 collector frees.  It is dereferenced once per
        # MSHR-allocating miss, never per core step.
        system = weakref.ref(self)

        def send_request(core_id: int, line: int, traffic_class: int) -> None:
            system()._send_request(core_id, line, traffic_class)

        self.cores = [
            InOrderCore(
                i,
                benchmark,
                self.space,
                l1=SetAssocCache(cfg.l1_lines, cfg.l1_assoc),
                mshrs=MSHRFile(cfg.mshrs),
                send_request=send_request,
                rng=rng_mod.make_stream(seed, "core", i, benchmark.name),
                l1_latency=cfg.l1_latency,
                blocking_fraction=benchmark.blocking_fraction,
                logical_matrix=self.logical_matrix,
            )
            for i in range(n)
        ]
        self._pending = TimeBuckets()  # replies waiting on L2/DRAM service
        self._requests = 0
        self._interrupts = 0
        self._next_timer = timer_interval if timer_interval else -1
        self.observers = tuple(observers)
        if warm_start:
            self._warm_start()

    def _warm_start(self) -> None:
        """Model the paper's warmed-up checkpoints (§IV-A).

        The benchmarks' L2-resident working set (the mid pool) is pre-filled
        into its home banks and each core's hot set into its L1, so short
        simulations measure steady-state miss rates instead of cold-start
        compulsory misses — the paper explicitly warmed and checkpointed its
        workloads for the same reason.
        """
        space = self.space
        # Both pools are runs of consecutive lines.  Low-order interleaving
        # deals the mid pool round-robin to the tiles, so each tile receives
        # every ``len(tiles)``-th line from its first one on; caches record
        # a run and build a set only when the simulation first touches it.
        tiles = len(self.tiles)
        start = space.mid_line(0)
        for tile in self.tiles:
            first = start + (tile.tile_id - space.home_tile(start)) % tiles
            tile.fill_run(first, len(range(first, start + space.mid_lines, tiles)))
        for core in self.cores:
            core.l1.fill_run(space.hot_line(core.core_id, 0), space.hot_lines)

    # -- traffic hooks --------------------------------------------------------
    def _count(self, src: int, dst: int, flits: int, cls: int) -> None:
        self.traffic_matrix[src, dst] += flits
        self._flits_by_class[cls] += flits
        bucket = self.network.now // self.timeline_bucket
        tl = self._timeline[cls]
        if bucket >= tl.size:
            for c in self._timeline:
                self._timeline[c] = np.concatenate(
                    [self._timeline[c], np.zeros(max(256, bucket + 1 - tl.size), dtype=np.int64)]
                )
            tl = self._timeline[cls]
        tl[bucket] += flits

    def _send_request(self, core_id: int, line: int, traffic_class: int) -> None:
        """Injection callback handed to each core."""
        home = self.space.home_tile(line)
        in_interrupt = bool(self.cores[core_id]._interrupt_stack)
        kind = (
            "kernel_timer"
            if in_interrupt
            else ("kernel_burst" if traffic_class == OS else "user")
        )
        self._requests += 1
        self._requests_by_kind[kind] += 1
        pkt = self.network.make_packet(
            core_id,
            home,
            REQUEST_FLITS,
            traffic_class=traffic_class,
            meta=("mem", core_id, line),
        )
        self.network.offer(pkt)
        self._count(core_id, home, REQUEST_FLITS, traffic_class)

    def _send_reply(self, home: int, core_id: int, line: int, traffic_class: int) -> None:
        pkt = self.network.make_packet(
            home,
            core_id,
            REPLY_FLITS,
            is_reply=True,
            traffic_class=traffic_class,
            meta=("rep", core_id, line),
        )
        self.network.offer(pkt)
        self._count(home, core_id, REPLY_FLITS, traffic_class)

    # -- engine workload hooks ----------------------------------------------------
    # CmpSystem is its own engine workload: the cores create traffic (gated
    # by MSHRs and interrupts) and delivered packets feed the memory system
    # and core wakeups back.
    def inject(self, net) -> None:
        now = net.now
        if now == self._next_timer:
            fired = False
            handler = self.benchmark.timer_handler
            for core in self.cores:
                fired |= core.interrupt(handler)
            if fired:
                self._interrupts += 1
            self._next_timer = now + self.timer_interval
        bucket = self._pending.pop(now)
        if bucket is not None:
            for home, core_id, line, cls in bucket:
                self._send_reply(home, core_id, line, cls)
        for core in self.cores:
            # busy, blocked on a load or finished: stepping would do nothing
            if core.ready_at <= now:
                core.step(now)

    def on_delivered(self, pkt, net) -> None:
        if pkt.meta[0] == "mem":
            _, core_id, line = pkt.meta
            latency, _hit = self.tiles[pkt.dst].service(line, pkt.traffic_class)
            self._pending.schedule(
                net.now + latency, (pkt.dst, core_id, line, pkt.traffic_class)
            )
        else:
            _, core_id, line = pkt.meta
            self.cores[core_id].on_reply(line, net.now)

    def done(self, net) -> bool:
        return (
            not self._pending
            and net.is_idle()
            and all(not c.active for c in self.cores)
        )

    # -- main loop ---------------------------------------------------------------
    def run(self, max_cycles: int = 5_000_000) -> CmpResult:
        """Run the benchmark to completion (or ``max_cycles``)."""
        net = self.network
        cores = self.cores
        tiles = self.tiles
        timer = self.timer_interval
        self._next_timer = timer if timer else -1
        SimulationEngine(net, self, max_cycles=max_cycles, observers=self.observers).run()
        completed = all(c.done for c in cores) and net.is_idle() and not self._pending
        cycles = net.now
        l2_acc = sum(t.l2.stats.accesses for t in tiles)
        l2_miss = sum(t.l2.stats.misses for t in tiles)
        miss_by_class = {}
        for cls in (USER, OS):
            hits = sum(t.class_hits.get(cls, 0) for t in tiles)
            misses = sum(t.class_misses.get(cls, 0) for t in tiles)
            miss_by_class[cls] = misses / (hits + misses) if hits + misses else 0.0
        buckets = cycles // self.timeline_bucket + 1
        timeline = np.zeros((2, buckets), dtype=np.int64)
        for cls in (USER, OS):
            src = self._timeline[cls][:buckets]
            timeline[cls, : src.size] = src
        return CmpResult(
            benchmark=self.benchmark.name,
            cycles=cycles,
            instructions=sum(c.instructions_retired for c in cores),
            completed=completed,
            total_flits=int(self.traffic_matrix.sum()),
            requests=self._requests,
            flits_by_class=dict(self._flits_by_class),
            requests_by_kind=dict(self._requests_by_kind),
            l2_accesses=l2_acc,
            l2_misses=l2_miss,
            l2_miss_by_class=miss_by_class,
            interrupts=self._interrupts,
            timer_interval=timer,
            mshr_stall_cycles=sum(c.mshr_stall_cycles for c in cores),
            kernel_instructions=sum(c.kernel_instructions for c in cores),
            timeline_bucket=self.timeline_bucket,
            timeline=timeline,
            traffic_matrix=self.traffic_matrix,
            logical_matrix=self.logical_matrix,
        )
