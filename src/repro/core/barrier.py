"""Closed-loop model with inter-node dependency (paper §II-B2).

The barrier (burst-synchronized) model: every node injects ``b`` packets as
fast as the network accepts them — no outstanding-request limit — and the
measurement completes when every injected packet has been delivered, i.e.
all nodes meet at a barrier.  As the paper notes, this essentially measures
network throughput and tracks open-loop saturation results; it is included
for completeness and for the open-loop/closed-loop comparison experiments.

``rounds`` > 1 interposes repeated barriers (each round injects ``b``
packets and waits for global completion), modelling bulk-synchronous
applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .. import rng as rng_mod
from ..config import NetworkConfig
from ..network.factory import build_network
from ..traffic.patterns import TrafficPattern
from ..traffic.registry import build_pattern, build_sizes
from ..traffic.sizes import SizeDistribution
from .engine import Observer, SimulationEngine

__all__ = ["BarrierResult", "BarrierSimulator"]


@dataclass
class BarrierResult:
    """Outcome of a barrier-model run."""

    batch_size: int
    rounds: int
    runtime: int
    throughput: float
    completed: bool
    round_times: np.ndarray = field(repr=False)

    @property
    def normalized_runtime(self) -> float:
        """Runtime per injected packet per node."""
        return self.runtime / (self.batch_size * self.rounds)


class _Barrier:
    """Offers a whole ``b``-packet burst per node whenever the fabric idles.

    Offering the burst up front matches the paper's "inject until b packets
    transmitted" semantics: the infinite source queue streams it subject
    only to network backpressure.  Each time the network drains with rounds
    remaining, the previous round's completion cycle is recorded and the
    next burst is offered in the same cycle (a zero-cost barrier).  The run
    is done when the last round has drained.
    """

    def __init__(self, batch_size: int, rounds: int, pattern, sizes, gen):
        self.batch_size = batch_size
        self.rounds = rounds
        self.pattern = pattern
        self.sizes = sizes
        self.gen = gen
        self.rounds_offered = 0
        self.round_times: list[int] = []

    def inject(self, net) -> None:
        if not net.is_idle() or self.rounds_offered >= self.rounds:
            return
        if self.rounds_offered:
            self.round_times.append(net.now)
        gen = self.gen
        pattern = self.pattern
        sizes = self.sizes
        for node in range(net.num_nodes):
            for _ in range(self.batch_size):
                dst = pattern.dest(node, gen)
                net.offer(net.make_packet(node, dst, sizes.draw(gen)))
        self.rounds_offered += 1

    def on_delivered(self, pkt, net) -> None:
        pass

    def done(self, net) -> bool:
        return self.rounds_offered >= self.rounds and net.is_idle()


class BarrierSimulator:
    """Burst-synchronized closed-loop driver."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        batch_size: int = 1000,
        rounds: int = 1,
        pattern: Optional[TrafficPattern] = None,
        sizes: Optional[SizeDistribution] = None,
        max_cycles: Optional[int] = None,
        observers: Iterable[Observer] = (),
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.config = config
        self.batch_size = batch_size
        self.rounds = rounds
        self.pattern = pattern if pattern is not None else build_pattern(config)
        self.sizes = sizes if sizes is not None else build_sizes(config)
        self.max_cycles = max_cycles if max_cycles is not None else 2000 * batch_size * rounds
        self.observers = tuple(observers)

    def run(self, *, seed: Optional[int] = None) -> BarrierResult:
        """Run all rounds to completion (or ``max_cycles``)."""
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        net = build_network(cfg)
        n = net.num_nodes
        gen = rng_mod.make_generator(seed, "barrier", self.batch_size)
        barrier = _Barrier(self.batch_size, self.rounds, self.pattern, self.sizes, gen)
        completed = SimulationEngine(
            net, barrier, max_cycles=self.max_cycles, observers=self.observers
        ).run()
        runtime = net.now if completed else self.max_cycles
        # The final (or truncated) round's completion cycle is recorded here:
        # the engine stops before the workload can observe the drained fabric.
        round_times = barrier.round_times + [net.now]
        throughput = net.total_flits_delivered / (runtime * n) if runtime else 0.0
        return BarrierResult(
            batch_size=self.batch_size,
            rounds=self.rounds,
            runtime=runtime,
            throughput=throughput,
            completed=completed,
            round_times=np.array(round_times, dtype=np.int64),
        )
