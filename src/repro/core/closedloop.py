"""Closed-loop batch model with intra-node dependency (paper §II-B1, §IV).

Each node must complete a *batch* of ``b`` remote operations: it injects a
request packet, the destination returns a reply, and the operation completes
when the reply arrives.  At most ``m`` requests may be outstanding per node
(the MSHR model); a node whose ``pf`` in-flight count reaches ``m`` stalls
until a reply returns.  The run's figure of merit is the **runtime** ``T`` —
the cycle at which the last node completes its batch — and the achieved
throughput ``θ = 2·b/T`` (flits/cycle/node for 1-flit packets).

This class also implements the paper's three extensions, all off by default
so the baseline model is recovered exactly:

* ``nar`` < 1 — the **enhanced injection model** (§IV-C1): an eligible node
  injects with probability NAR per cycle instead of always.
* ``reply_model`` — the **enhanced reply model** (§IV-C2): replies wait for
  an L2/memory service delay before entering the network.
* ``os_model`` — the **kernel-traffic model** (§V): a static batch increase
  for syscall/trap traffic plus dynamic timer-interrupt mini-batches, using
  an OS traffic class with its own NAR and reply class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .. import rng as rng_mod
from ..classes import OS_CLASS, USER_CLASS, USER_OS_CLASSES, inject_order
from ..config import NetworkConfig
from ..network.links import TimeBuckets
from ..network.factory import build_network
from ..traffic.patterns import TrafficPattern
from ..traffic.registry import build_pattern, build_sizes
from ..traffic.sizes import SizeDistribution
from .engine import Observer, SimulationEngine
from .osmodel import OSModel
from .reply import ImmediateReply, ReplyModel

__all__ = ["BatchResult", "BatchSimulator", "USER_CLASS", "OS_CLASS"]


@dataclass
class BatchResult:
    """Outcome of one batch-model run.

    ``runtime`` is the paper's ``T``; ``normalized_runtime`` is ``T/b``
    (Fig. 2's y-axis); ``throughput`` is delivered flits/cycle/node over the
    run, which equals the paper's ``θ = 2b/T`` for 1-flit packets.
    ``node_finish`` holds each node's completion cycle (Fig. 7's map).
    """

    batch_size: int
    max_outstanding: int
    runtime: int
    throughput: float
    completed: bool
    total_requests: int
    avg_request_latency: float
    node_finish: np.ndarray = field(repr=False)
    os_requests: int = 0

    @property
    def normalized_runtime(self) -> float:
        """Runtime per batch operation, T/b."""
        return self.runtime / self.batch_size

    @property
    def packet_throughput(self) -> float:
        """The paper's θ = (b·2)/T in packets/cycle/node."""
        return 2.0 * self.batch_size / self.runtime


class _BatchLoop:
    """The batch state machine, as the engine's workload.

    Injection eligibility depends on replies already received: ``inject``
    runs the timer/reply-release/inject sequence before each network cycle,
    ``on_delivered`` turns requests into replies and retires batch
    operations, and ``done`` signals when every node has completed its
    batch.
    """

    def __init__(self, sim: "BatchSimulator", num_nodes: int, gen):
        n = num_nodes
        b = sim.batch_size
        self.sim = sim
        self.gen = gen
        classes = sim.config.classes
        self.os_static = sim.os_model.static_extra(b) if sim.os_model else 0
        self.timer_interval = sim.os_model.timer_interval if sim.os_model else 0
        self.next_timer = self.timer_interval if self.timer_interval else -1
        # Per-class bookkeeping, indexed by the config's class registry:
        # the user batch lives in USER_CLASS, the OS extension's extras in
        # OS_CLASS (the registry is auto-extended when an os_model is set),
        # any further classes carry no batch work — they exist for
        # arbitration.  Injection walks classes in priority order
        # (inject_order), which for the user/OS pair is exactly the paper's
        # "interrupts preempt" rule.
        self.remaining = [[0] * n for _ in classes]
        self.remaining[USER_CLASS] = [b] * n
        if self.os_static:
            self.remaining[OS_CLASS] = [self.os_static] * n
        self.inject_order = inject_order(classes)
        self.nar_by_class = [sim.nar] * len(classes)
        if sim.os_model is not None and len(classes) > OS_CLASS:
            self.nar_by_class[OS_CLASS] = sim.os_model.os_nar
        self.requests_by_class = [0] * len(classes)
        self.replies_needed = [b + self.os_static] * n
        self.pf = [0] * n
        self.finish = np.full(n, -1, dtype=np.int64)
        self.unfinished = n
        self.pending_replies = TimeBuckets()
        self.total_requests = 0
        self.req_latency_sum = 0
        self.req_latency_count = 0

    @property
    def os_requests(self) -> int:
        """Requests injected by the OS class (0 without an OS class)."""
        if len(self.requests_by_class) > OS_CLASS:
            return self.requests_by_class[OS_CLASS]
        return 0

    def inject(self, net) -> None:
        now = net.now
        sim = self.sim
        gen = self.gen
        n = len(self.pf)
        # Timer interrupts add OS-class work to every unfinished node
        # whose previous handler batch has drained — interrupts do not
        # nest (a core still inside the handler skips the next tick),
        # which also keeps the model stable when the handler cost
        # exceeds the interval, exactly as in the execution-driven
        # substrate.
        if self.next_timer >= 0 and now == self.next_timer:
            extra = sim.os_model.timer_batch
            os_remaining = self.remaining[OS_CLASS]
            for node in range(n):
                if self.finish[node] < 0 and os_remaining[node] == 0:
                    os_remaining[node] += extra
                    self.replies_needed[node] += extra
            self.next_timer = now + self.timer_interval
        # Release replies whose memory service completed.
        bucket = self.pending_replies.pop(now)
        if bucket is not None:
            for reply in bucket:
                net.offer(reply)
        # Injection: OS class preempts user class; NAR gates the rate.
        draws = gen.random(n)
        pf = self.pf
        m = sim.max_outstanding
        pattern = sim.pattern
        sizes = sim.sizes
        remaining = self.remaining
        order = self.inject_order
        nar = self.nar_by_class
        for node in range(n):
            if pf[node] >= m:
                continue
            for cls in order:
                if remaining[cls][node] > 0:
                    break
            else:
                continue
            rate = nar[cls]
            if rate < 1.0 and draws[node] >= rate:
                continue
            dst = pattern.dest(node, gen)
            pkt = net.make_packet(
                node, dst, sizes.draw(gen), traffic_class=cls, meta=("req", node)
            )
            net.offer(pkt)
            pf[node] += 1
            self.total_requests += 1
            remaining[cls][node] -= 1
            self.requests_by_class[cls] += 1

    def on_delivered(self, pkt, net) -> None:
        gen = self.gen
        if pkt.meta is not None and pkt.meta[0] == "req":
            self.req_latency_sum += pkt.latency
            self.req_latency_count += 1
            delay = self.sim.reply_model.delay(gen, pkt.traffic_class)
            reply = net.make_packet(
                pkt.dst,
                pkt.src,
                self.sim.reply_sizes.draw(gen),
                is_reply=True,
                traffic_class=pkt.traffic_class,
                meta=("rep", pkt.meta[1]),
            )
            if delay == 0:
                net.offer(reply)
            else:
                self.pending_replies.schedule(net.now + delay, reply)
        else:
            owner = pkt.meta[1]
            self.pf[owner] -= 1
            self.replies_needed[owner] -= 1
            if self.replies_needed[owner] == 0 and all(
                rem[owner] == 0 for rem in self.remaining
            ):
                self.finish[owner] = net.now
                self.unfinished -= 1

    def done(self, net) -> bool:
        return self.unfinished == 0


class BatchSimulator:
    """Closed-loop batch-model driver over a cycle-level network."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        batch_size: int = 1000,
        max_outstanding: int = 1,
        nar: float = 1.0,
        reply_model: Optional[ReplyModel] = None,
        os_model: Optional[OSModel] = None,
        pattern: Optional[TrafficPattern] = None,
        sizes: Optional[SizeDistribution] = None,
        reply_sizes: Optional[SizeDistribution] = None,
        max_cycles: Optional[int] = None,
        network_factory=build_network,
        observers: Iterable[Observer] = (),
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_outstanding < 1:
            raise ValueError("max_outstanding (m) must be >= 1")
        if not 0.0 < nar <= 1.0:
            raise ValueError("nar must be in (0, 1]")
        if os_model is not None and len(config.classes) < 2:
            # The OS extension needs an OS traffic class; extend a default
            # single-class config to the canonical user/OS registry (the OS
            # class carries priority 1, so priority-aware arbiters favor
            # kernel traffic — round-robin/age arbiters ignore it and the
            # baseline behavior is unchanged).
            config = config.with_(classes=USER_OS_CLASSES)
        self.config = config
        self.batch_size = batch_size
        self.max_outstanding = max_outstanding
        self.nar = nar
        self.reply_model = reply_model if reply_model is not None else ImmediateReply()
        self.os_model = os_model
        self.pattern = pattern if pattern is not None else build_pattern(config)
        self.sizes = sizes if sizes is not None else build_sizes(config)
        self.reply_sizes = reply_sizes if reply_sizes is not None else self.sizes
        # Generous default: enough for m=1 at high per-op latency.
        self.max_cycles = (
            max_cycles
            if max_cycles is not None
            else 4000 * batch_size + 2_000_000 // batch_size
        )
        # Injection point for instrumented networks (e.g. trace capture).
        self.network_factory = network_factory
        self.observers = tuple(observers)

    def run(self, *, seed: Optional[int] = None) -> BatchResult:
        """Run to completion (or ``max_cycles``); deterministic per seed."""
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        net = self.network_factory(cfg)
        n = net.num_nodes
        gen = rng_mod.make_generator(seed, "batch", self.batch_size, self.max_outstanding)
        loop = _BatchLoop(self, n, gen)
        completed = SimulationEngine(
            net, loop, max_cycles=self.max_cycles, observers=self.observers
        ).run()
        runtime = int(loop.finish.max()) if completed else self.max_cycles
        throughput = net.total_flits_delivered / (runtime * n) if runtime else 0.0
        return BatchResult(
            batch_size=self.batch_size,
            max_outstanding=self.max_outstanding,
            runtime=runtime,
            throughput=throughput,
            completed=completed,
            total_requests=loop.total_requests,
            avg_request_latency=(
                loop.req_latency_sum / loop.req_latency_count
                if loop.req_latency_count
                else float("nan")
            ),
            node_finish=loop.finish,
            os_requests=loop.os_requests,
        )
